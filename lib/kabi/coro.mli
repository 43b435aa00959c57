(** Effect-handler coroutines: the "machine code" of simulated threads.

    User programs are plain OCaml closures that interact with the machine
    only through the operations below. Each operation performs an OCaml 5
    effect; {!start} reifies the computation into a {!step} value the
    kernel schedules — exactly the boundary a real kernel sees (trap in,
    decide, resume). Each suspended [step] carries the continuation
    itself; the kernel answers it with [Effect.Deep.continue], at most
    once, since continuations are one-shot.
    The timebase is the exception: {!rdtsc} is a user-mode register read
    on the real core, so it performs no effect and never suspends.

    [consume] is time: a block of straight-line computation costing [n]
    cycles. Kernels decide how much wall-clock those cycles take (CNK:
    exactly [n] plus DRAM refresh; the FWK: [n] plus ticks, daemons and
    TLB misses — the paper's noise story). *)

val consume : int -> unit
(** Retire [n >= 0] cycles of computation. *)

val rdtsc : unit -> Bg_engine.Cycles.t
(** Read the core's timebase register: the time of the event the
    thread runs in ({!Bg_engine.Sim.firing_time}). No trap, no kernel
    involvement and no cost, as on the PPC450. *)

val syscall : Sysreq.request -> Sysreq.reply

val load : addr:int -> len:int -> bytes
(** Data access through the MMU (translation + DAC checks apply). *)

val store : addr:int -> bytes -> unit

val yield : unit -> unit
(** Voluntarily let another thread of the same core run. *)

val cas : addr:int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap on a 64-bit word (lwarx/stwcx on the real
    core). The kernel performs the read-modify-write as one indivisible
    step, which is what makes user-space NPTL mutexes possible. *)

val fetch_add : addr:int -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

type step =
  | Finished
  | Crashed of exn
  | Consume of int * (unit, step) Effect.Deep.continuation
  | Syscall of Sysreq.request * (Sysreq.reply, step) Effect.Deep.continuation
  | Load of int * int * (bytes, step) Effect.Deep.continuation
  | Store of int * bytes * (unit, step) Effect.Deep.continuation
  | Yield of (unit, step) Effect.Deep.continuation
  | Cas of int * int * int * (bool, step) Effect.Deep.continuation
      (** addr, expected, desired *)
  | Fetch_add of int * int * (int, step) Effect.Deep.continuation  (** addr, delta *)

val start : (unit -> unit) -> step
(** Run [f] until it finishes, crashes, or performs its first operation. *)

exception Killed of string
(** Kernels discard a continuation by dropping it; user code that must
    observe termination (e.g. a SIGSEGV with no handler) sees this. *)
