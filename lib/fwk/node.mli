(** The full-weight-kernel baseline: a Linux-like compute-node kernel.

    Implements the same syscall ABI as CNK so the {e same} program images
    and runtime (glibc veneers, pthreads, malloc) run on both — the
    "standard applications out of the box" side of the paper's FWK/LWK
    comparison. The differences are exactly the ones the paper evaluates:

    - {b Preemptive scheduling}: 1 kHz timer tick, 10 ms time slices,
      round-robin per core, no per-core thread limit (overcommit allowed,
      Table II).
    - {b Noise}: per-core daemon populations ({!Noise_model}) steal cycles
      at jittered intervals — the Figs 5–7 Linux spread.
    - {b Demand-paged memory}: 4 KiB pages faulted in from a {!Buddy}
      allocator on first touch, hardware TLB filled on demand with FIFO
      eviction; translation misses cost cycles at unpredictable times
      (§IV.C). The user address space tops out at 3 GB (§VII.A).
    - {b Local I/O}: the POSIX calls run in-kernel against a local
      filesystem (no function shipping), with Linux-scale syscall costs.
    - {b No static map}: Query_map/Query_vtop return ENOSYS — user space
      cannot learn virtual-to-physical here, which is what blocks
      user-space DMA (§V.C).
    - {b Slow boot}: {!boot_cycles_full} ("weeks" at 10 Hz VHDL speed)
      vs a stripped build's {!boot_cycles_stripped} ("days").

    Everything else is CNK's own scaffold, {!Cnk.Kernel}. This module
    supplies the FWK's policy record: page-wise demand-paged memory (a
    fault runs the SIGSEGV handler if there is one); a consume through the
    noise model split at time slices; the syscalls that differ; and a
    [fwk.job_done] trace label, its only lifecycle hook. *)

type t

val create :
  ?noise_seed:int64 ->
  ?daemons:(core:int -> Noise_model.daemon list) ->
  ?tick_interval:int ->
  ?stripped:bool ->
  Machine.t ->
  rank:int ->
  unit ->
  t
(** [noise_seed] seeds the daemon jitter streams; by default it derives
    from the machine instance, modeling the uncontrolled variability that
    makes Linux runs non-reproducible (§III). [daemons] defaults to
    {!Noise_model.suse_daemon_set}. [tick_interval] overrides the 1 kHz
    timer tick period (a huge value effectively disables the tick
    scheduler — the messaging benches' quiet baseline). *)

val machine : t -> Machine.t
val rank : t -> int
val fs : t -> Bg_cio.Fs.t

val boot_cycles_full : int
val boot_cycles_stripped : int
val boot : t -> on_ready:(unit -> unit) -> unit
val booted : t -> bool

val launch : t -> Job.t -> (unit, string) result
(** One process per job in this baseline (the noise and paging benches are
    single-process); threads spread across all four cores. *)

val job_active : t -> bool
val on_job_complete : t -> (unit -> unit) -> unit

val live_threads : t -> int
val faults : t -> (int * string) list
val minor_faults : t -> int
(** Anonymous demand-paging events taken so far. *)

val major_faults : t -> int
(** File-backed faults: pages read from the VFS at first touch. CNK has no
    equivalent — it copies whole files at map time (§IV.B.2), so its
    dynamic-linking noise is confined to startup. *)

val reclaims : t -> int
(** File-backed pages discarded under memory pressure and later re-read —
    the unified-page-cache behaviour CNK deliberately lacks (§VI.B). *)

val tlb_refills : t -> int
val stolen_cycles : t -> int
(** Total interference injected across cores. *)

val try_alloc_contiguous : t -> bytes:int -> bool
(** Probe: can the buddy allocator currently produce one physically
    contiguous block of [bytes]? (Frees it again.) The Table II
    "easy to request, may not be granted" experiment. *)

val churn : t -> allocations:int -> seed:int64 -> unit
(** Fragment physical memory with a deterministic alloc/free pattern. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Hashtable
    contents are sorted before writing; closures are captured by shape
    only (presence, tids, queue order). *)
