(** Deterministic priority queue of simulation events.

    Events are ordered by (timestamp, insertion sequence number): two events
    scheduled for the same cycle fire in insertion order. This total order
    is what makes the whole machine cycle-reproducible — the scheduler never
    consults anything outside the queue to break ties.

    Events of one time wait in FIFO chains behind one heap entry, so an
    event on a cycle already queued, the common case for ranks in
    lockstep, is added and taken without a sift. *)

type 'a t

type handle = private int
(** Identifies a scheduled event so it can be cancelled: its slot in the
    queue and its sequence number, packed into one immediate int, so
    {!add} allocates nothing for it. A queue holds at most 2{^24} events,
    pending or cancelled but not yet dropped. The sequence number is cut
    to its low 38 bits, so a handle kept across 2{^38} later events may
    name a newer event in the same slot. A handle is only valid on the
    queue that issued it: on another queue it may cancel an unrelated
    event. *)

val create : unit -> 'a t

val add : 'a t -> time:Cycles.t -> 'a -> handle
(** [add q ~time payload] schedules [payload] at [time], which must be
    [>= 0]: {!top_time} uses [-1] to signal an empty queue.
    @raise Invalid_argument on a negative [time], or when the queue
    already holds 2{^24} events. *)

val cancel : 'a t -> handle -> unit
(** [cancel q h] removes the event, if it has not already fired. O(1).
    Cancelling twice, cancelling a fired event, or cancelling after the
    event's slot went to a later event is a no-op. *)

val pop : 'a t -> (Cycles.t * 'a) option
(** Remove and return the earliest live event. *)

val top_time : 'a t -> Cycles.t
(** The timestamp of the earliest live event, without removing it, or
    [-1] when none is live. Allocates nothing. *)

val take_top : 'a t -> 'a
(** Like {!pop} without the option and tuple: remove the earliest live
    event and return its payload, its time being {!top_time}. Allocates
    nothing.
    @raise Invalid_argument when no event is live. *)

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val next_seq : 'a t -> int
(** Sequence number the next {!add} will receive. *)

val live : 'a t -> (Cycles.t * int) list
(** Sorted [(time, seq)] pairs of every live event — the queue's shape,
    without the (unserializable) payloads. Used by snapshot capture. *)
