(** One CNK instance: the compute-node kernel (the paper's contribution).

    Everything the paper describes CNK doing is implemented here against
    the simulated chip:

    - {b Static memory} (§IV.C): {!Mapping} is computed at launch, TLB
      entries are installed once per core, and no translation ever misses.
    - {b Scheduling} (§VI.C): non-preemptive, fixed core affinity, a small
      fixed number of threads per core; a thread leaves its core only by
      blocking on a futex, yielding, or exiting. Function-shipped I/O does
      {e not} yield the core.
    - {b NPTL-subset syscalls} (§IV.B): clone (validated against glibc's
      fixed flag set), set_tid_address, futex, sigaction, uname (reporting
      2.6.19.2), brk, mmap/munmap/mprotect.
    - {b Guard pages} (§IV.C, Fig 4): DAC registers watch the range above
      the program break for the main thread, and the last-mprotect range
      for cloned threads; heap extension by another core repositions the
      main guard via an inter-processor interrupt.
    - {b Function-shipped I/O} (§IV.A): file syscalls marshal into
      {!Bg_cio.Proto} messages, cross the collective network to CIOD, and
      the reply resumes the caller; the core busy-waits (no context switch
      during a system call).
    - {b Persistent memory} (§IV.D) via {!Persist}.
    - {b Reproducible boot/reset} (§III): full-reset preparation rendezvous,
      DDR self-refresh, and restart that skips the service node.

    Threads, run queues, futex and signal delivery, the step driver and
    the syscalls CNK answers like Linux live in the shared {!Kernel}
    scaffold. This module supplies CNK's policy record: memory through the
    static map with L2 and DAC checks (a fault kills the thread); a
    tickless consume charged only injected penalty and IPI handlers, with
    the TLB map swap in the context-switch cost; the syscalls that differ
    (file I/O, brk, file-backed mmap, mprotect, clone placement and
    validation, DMA, uname, shm_open, the [Query_*] calls); and the hooks
    that emit the [cnk.*] lifecycle trace labels.

    All durations are in simulated cycles; with a fixed seed every public
    observable (trace digest, completion cycle, memory contents) is
    bit-reproducible. *)

type t

val create :
  ?mapping_config:Mapping.config ->
  Machine.t ->
  rank:int ->
  ciod:Bg_cio.Ciod.t ->
  unit ->
  t
(** Build the kernel for node [rank] and register its reply-delivery path
    with [ciod]. [mapping_config] overrides memory-layout defaults (DRAM
    size is always taken from the chip). *)

val machine : t -> Machine.t
val rank : t -> int
val chip : t -> Bg_hw.Chip.t

(** {1 Boot} *)

val boot_cycles : int
(** Cold-boot budget (~82 us at 850 MHz): the "CNK boots in a couple of
    hours at 10 Hz VHDL speed" constant of §III. *)

val reproducible_restart_cycles : int
(** Restart skipping service-node interaction (§III). *)

val boot : t -> on_ready:(unit -> unit) -> unit
(** Cold boot: schedules [on_ready] after {!boot_cycles}. *)

val booted : t -> bool

val prepare_and_reset : t -> reproducible:bool -> on_ready:(unit -> unit) -> unit
(** The §III sequence: rendezvous all cores in boot SRAM, flush caches,
    put DDR in self-refresh, toggle reset, restart. In reproducible mode
    the restart skips the service node and DRAM contents survive; [on_ready]
    fires when the kernel is back up. Any running job is destroyed. *)

(** {1 Jobs} *)

val launch : t -> Job.t -> (unit, string) result
(** Compute the static map, install TLB entries, load the image, create
    one process per the job's mode with its main thread on the process's
    first core, and start everything. Fails if a job is active, the map
    cannot be built, or its static TLB entries do not fit a core's TLB;
    a failed launch leaves the node as it was. *)

val image_pattern : Image.t -> int -> Bytes.t
(** The [len] bytes {!launch} writes at the text base: deterministic
    pseudo-contents standing in for the program text, drawn from a
    stream seeded by the image name. The write is deferred
    ({!Bg_hw.Memory.write_deferred}), so they are drawn only when
    something reads the text or digests the node's DRAM. *)

val job_active : t -> bool
val on_job_complete : t -> (unit -> unit) -> unit
(** [f] fires (once) when every process of the current job has exited. *)

(** {1 Introspection (tests, benches, bringup tooling)} *)

val process_count : t -> int
val live_threads : t -> int
val syscall_count : t -> int
val ipi_count : t -> int
val faults : t -> (int * string) list
(** (tid, reason) for every thread killed by a fault (e.g. guard hit with
    no SIGSEGV handler). *)

val exit_codes : t -> (int * int) list
(** (pid, status) of exited processes of the current/last job. *)

val process_map : t -> pid:int -> Mapping.process_map option
val persist : t -> Persist.t

val read_virtual : t -> pid:int -> addr:int -> len:int -> bytes
(** Debug port: read through a process's static map (no DAC, no timing). *)

val set_io_enabled : t -> bool -> unit
(** Bringup control flag: with I/O off, file syscalls fail with [ENOSYS]
    instead of touching the collective network (§III: running with major
    units absent). *)

val kill_job : t -> unit
(** Control-system kill: every live thread of the current job exits with
    status 137 and the job completes immediately. No-op when idle. *)

val set_strace : t -> bool -> unit
(** Capture an strace-style log of every syscall (cycle, tid, rendered
    request). Off by default; a debugging aid, not part of the model. *)

val strace_output : t -> string

val scan_state : t -> Bg_engine.Fnv.t
(** Architectural state digest for logic scans: chip state + kernel
    counters. *)

val inject_l1_parity_error : t -> core:int -> bool
(** Hardware L1 parity error on [core] (paper §V.B): the occupying thread
    receives SIGBUS at its next resumption — with a handler registered the
    application recovers in place (the Gordon Bell mechanism); without
    one the thread dies. Returns [false] when the core is idle. *)

(** {1 Extended thread affinity (paper §VIII)} *)

val designate_remote : t -> core:int -> pid:int -> (unit, string) result
(** Allow [pid]'s pthreads to run on [core] (which belongs to another
    process), alternating with the core's own threads — the restricted
    extension the paper chose over a fully general affinity model. At most
    one remote pthread occupies the core at a time, and every switch
    between the two processes swaps the core's static TLB map (a real,
    visible cost — the tension §VIII describes). Fails if the core already
    belongs to [pid] or the remote map cannot fit the TLB. *)

val remote_designation : t -> core:int -> int option

val add_core_penalty : t -> core:int -> cycles:int -> unit
(** Charge interference cycles to a core, paid at its next consume. CNK
    itself never does this; it is the hook {!Bg_noise.Injection} uses for
    Ferreira-style kernel-level noise-injection studies (§V.A). *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Hashtable
    contents are sorted before writing; closures are captured by shape
    only (presence, tids, sequence numbers). *)
