(** The kernel scaffold shared by CNK ({!Node}) and the full-weight
    baseline ([Bg_fwk.Node]).

    The paper argues that CNK differs from a full-weight kernel in a small
    set of policies: static memory instead of demand paging, no preemption
    or daemons instead of ticks and time slices, function-shipped instead
    of local I/O. This module is everything else, written once: thread,
    process and core records, per-core run queues, futex wake and EINTR,
    signal delivery, thread and process exit, job completion, the
    coroutine step driver with its syscall instrumentation, and the
    syscalls both kernels answer alike. A kernel plugs in a {!policy}
    record of closures and keeps its own state in the extension fields
    ([tx], [px], [cx], [nx]). *)

val sigsegv : int
(** The signal a faulting access raises. *)

type thread_state = Running | Ready | Blocked | Zombie

type ('t, 'p) thread = {
  tid : int;
  proc : ('t, 'p) proc;
  core_id : int;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;
  mutable clear_child_tid : int option;
  mutable pending_sigs : int list;
  mutable futex_eintr : bool;  (** a signal interrupted the futex wait *)
  tx : 't;  (** the kernel's own per-thread state *)
}

and ('t, 'p) proc = {
  pid : int;
  tracker : Mmap_tracker.t;
  mutable handlers : (int * (int -> unit)) list;  (** by signal number *)
  mutable threads : ('t, 'p) thread list;
  mutable exited : bool;
  px : 'p;  (** the kernel's own per-process state *)
}

type ('t, 'p, 'c) core = {
  id : int;
  mutable current : ('t, 'p) thread option;
  ready : ('t, 'p) thread Queue.t;
  mutable penalty : int;  (** cycles charged at the core's next consume *)
  cx : 'c;  (** the kernel's own per-core state *)
}

(** Lifecycle points a kernel may trace or act on. *)
type ('t, 'p) event =
  | Trap of ('t, 'p) thread * Sysreq.request  (** before the entry cost *)
  | Signal of ('t, 'p) thread * int  (** a handler is about to run *)
  | Cloned of ('t, 'p) thread  (** tid words published, not yet ready *)
  | Thread_exit of ('t, 'p) thread  (** now a zombie, futex not yet dropped *)
  | Proc_exit of ('t, 'p) proc * int  (** last thread gone, with its code *)
  | Job_done  (** every process exited, before [on_complete] fires *)

type ('t, 'p, 'c, 'n) t = {
  machine : Machine.t;
  rank : int;
  chip : Bg_hw.Chip.t;
  cores : ('t, 'p, 'c) core array;
  futex : Futex.t;
  procs : (int, ('t, 'p) proc) Hashtbl.t;
  threads : (int, ('t, 'p) thread) Hashtbl.t;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable booted : bool;
  mutable job_active : bool;
  mutable live_procs : int;  (** processes in [procs] that have not exited *)
  mutable on_complete : (unit -> unit) option;
  mutable faults : (int * string) list;  (** newest first *)
  refresh_interval : int;  (** the chip's DRAM refresh period *)
  refresh_stall : int;  (** and the stall each refresh costs *)
  mutable refresh_lo : int;
  mutable refresh_hi : int;
      (** the DRAM refresh window [\[lo, hi)] {!refresh_stretch} last
          ended in *)
  policy : ('t, 'p, 'c, 'n) policy;
  nx : 'n;  (** the kernel's own node state *)
}

(** What a kernel supplies. Memory functions raise {!Fault}. *)
and ('t, 'p, 'c, 'n) policy = {
  read : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> int -> bytes;  (** a [Load] *)
  write : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> bytes -> bool;
      (** a [Store]; [false] when it was dropped and a signal queued instead *)
  read_word : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> int;
  write_word : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> int -> unit;
      (** the word accesses of [Cas], [Fetch_add], futex and clone *)
  clear_tid : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> unit;
      (** zero an exiting thread's CLONE_CHILD_CLEARTID word *)
  fault : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> string -> (unit -> unit) -> unit;
      (** a faulting access: kill the thread, or call the continuation to
          go on with the access dropped *)
  consume :
    ('t, 'p, 'c, 'n) t ->
    ('t, 'p) thread ->
    int ->
    (unit, Coro.step) Effect.Deep.continuation ->
    unit;
      (** run [n] cycles of work, then deliver signals and resume the
          continuation *)
  switch_in : ('t, 'p, 'c, 'n) t -> ('t, 'p, 'c) core -> ('t, 'p) thread -> int;
      (** a thread takes the core; returns the context-switch cycles *)
  syscall_cycles : int;  (** syscall entry cost *)
  syscall :
    ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> Sysreq.request -> (Sysreq.reply -> unit) -> unit;
      (** every request {!step} does not answer itself *)
  clone : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> Sysreq.clone_flags -> (int * 't, Errno.t) result;
      (** validate a clone and place the child: its core and extension *)
  hook : ('t, 'p, 'c, 'n) t -> ('t, 'p) event -> unit;
}

exception Fault of string

(** {1 Helpers} *)

val sim : (_, _, _, _) t -> Bg_engine.Sim.t
val memory : (_, _, _, _) t -> Bg_hw.Memory.t

val emit : (_, _, _, _) t -> Bg_engine.Fnv.Label.t -> int -> unit
(** Trace event with value [rank * 1_000_000 + value]; the label comes
    from {!Bg_engine.Trace.label}. *)

val obs : (_, _, _, _) t -> Bg_obs.Obs.t
val acct : (_, _, _, _) t -> Bg_obs.Accounting.t
val causal : (_, _, _, _) t -> Bg_obs.Causal.t

val causal_mint : ?chain:bool -> (_, _, _, _) t -> Bg_obs.Obs.label -> core:int -> Bg_obs.Causal.ctx
(** A causal node on this rank, or [Causal.none] when collection is off. *)

val ras : (_, _, _, _) t -> Machine.ras_event -> unit
(** Emit on the machine RAS stream from this rank. *)

val ras_note : (_, _, _, _) t -> Bg_obs.Rasdb.severity -> string -> unit
(** [ras] of a {!Machine.Note}. *)

val refresh_stretch : (_, _, _, _) t -> int -> int -> int
(** [refresh_stretch t start n]: [n] plus the DRAM refresh stalls in
    [\[start, start + n)]. *)

(** Accessors both nodes export unchanged. *)
module Api : sig
  val machine : (_, _, _, _) t -> Machine.t
  val rank : (_, _, _, _) t -> int
  val chip : (_, _, _, _) t -> Bg_hw.Chip.t
  val booted : (_, _, _, _) t -> bool
  val job_active : (_, _, _, _) t -> bool
  val on_job_complete : (_, _, _, _) t -> (unit -> unit) -> unit
  val faults : (_, _, _, _) t -> (int * string) list
  val live_threads : (_, _, _, _) t -> int
end

val create :
  Machine.t ->
  rank:int ->
  core:(int -> 'c) ->
  policy:('t, 'p, 'c, 'n) policy ->
  'n ->
  ('t, 'p, 'c, 'n) t
(** One core record per chip core, [core id] its extension. *)

(** {1 Threads} *)

val new_proc : ('t, 'p, 'c, 'n) t -> tracker:Mmap_tracker.t -> (int -> 'p) -> ('t, 'p) proc
(** Allocate a pid and register a live process; the function builds its
    extension from the pid. *)

val spawn :
  ('t, 'p, 'c, 'n) t ->
  ('t, 'p) proc ->
  core_id:int ->
  ?clear_child_tid:int ->
  't ->
  ('t, 'p) thread
(** Allocate a tid and register a [Ready] thread that is not yet queued. *)

val start : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> (unit -> unit) -> unit
(** [start t th entry]: [th]'s next resume runs [entry] as a fresh
    coroutine. *)

val make_ready : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> unit
(** Queue on the thread's core and dispatch; zombies are ignored. *)

val requeue : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> unit
(** Give up the core and go to the back of its run queue. *)

val thread_exit : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> unit
(** Make the thread a zombie with this exit code: clear its tid word,
    free its core, and end its process and the job when it was the last. *)

val deliver_signals : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> bool
(** Run the pending signals' handlers; [false] if one killed the thread. *)

val step : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> Coro.step -> unit
(** Drive a thread from one coroutine step to its next suspension. *)

(** {1 Snapshot capture} *)

val w_i : Buffer.t -> int -> unit
val w_b : Buffer.t -> bool -> unit
val w_opt : Buffer.t -> int option -> unit
val w_s : Buffer.t -> string -> unit
val w_list : Buffer.t -> ('a -> unit) -> 'a list -> unit
(** Length, then each element. *)

val state_code : thread_state -> int

val sorted : ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** Bindings in key order, independent of hash iteration. *)

val w_faults : Buffer.t -> (_, _, _, _) t -> unit
(** The fault list, oldest first. *)
