(** The discrete-event simulator core.

    A [Sim.t] owns the global clock, the deterministic event queue, the
    architectural trace and the root RNG. All hardware units and kernels
    advance by scheduling thunks; the run loop fires them in (time,
    insertion-order) sequence, so a whole-machine run is a pure function of
    the seed and configuration — the property behind CNK's cycle
    reproducibility (paper §III). *)

type t

type outcome =
  | Completed      (** event queue drained *)
  | Reached_limit  (** stopped at the [until] time or [max_events] budget *)
  | Halted of string
      (** {!halt} was called, e.g. by a destructive logic scan *)

val create : ?seed:int64 -> ?keep_trace_records:bool -> unit -> t
(** [create ()] makes a simulator at cycle 0. [seed] defaults to 1. *)

val now : t -> Cycles.t

val seed : t -> int64

val schedule_at : t -> Cycles.t -> (unit -> unit) -> Event_queue.handle
(** Schedule a thunk at an absolute cycle, which must be [>= now].
    @raise Invalid_argument naming the time when it is before [now]. *)

val schedule_in : t -> Cycles.t -> (unit -> unit) -> Event_queue.handle
(** Schedule a thunk [delta] cycles from now ([delta >= 0]).
    @raise Invalid_argument naming the delay when it is negative. *)

val cancel : t -> Event_queue.handle -> unit

val pending : t -> int
(** Number of scheduled, unfired events. *)

val run : ?until:Cycles.t -> ?max_events:int -> t -> outcome
(** Fire events in order until the queue drains, the clock passes [until],
    the event budget is exhausted, or {!halt} is called. The clock is left
    at the last fired event (or at [until] when that limit hit first). *)

val step : t -> bool
(** Fire exactly one event. Returns [false] when the queue is empty. *)

val firing_time : unit -> Cycles.t
(** The time of the event being fired, by whichever simulator fires it
    (the last one fired, between events). Simulated threads run only
    inside fired events, so it is the running thread's [now]: a timebase
    read that needs no simulator in hand. It is one cell for the whole
    process, so simulators on different domains cannot share it. *)

val halt : t -> string -> unit
(** Request that the enclosing {!run} stop after the current event. *)

val trace : t -> Trace.t

val emit : t -> label:Fnv.Label.t -> value:int -> unit
(** Append an observable event at the current cycle; [label] comes from
    {!Trace.label}. *)

val rng : t -> string -> Rng.t
(** [rng t name] returns the named RNG stream, creating it (deterministically
    from the seed and [name]) on first use. Subsequent calls return the same
    stream, preserving its position. *)

val events_fired : t -> int
(** Total events fired since creation, across every {!run} and {!step}
    call. The snapshot cursor: deterministic replay of the same scenario
    reaches identical machine state at the same count. *)

val capture : t -> Buffer.t -> unit
(** Serialize the simulator's own state — clock, seed, event cursor,
    trace digest, RNG stream positions, and the (time, seq) shape of the
    live event queue — little-endian, for a snapshot region. Event
    payloads are closures and are not captured; restore is by replay. *)
