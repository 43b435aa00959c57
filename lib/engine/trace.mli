(** Architecturally observable event trace with a running digest.

    The trace is the simulator's analogue of the signal history a logic
    analyzer would see on real silicon. Every unit that changes observable
    state appends a record; the running FNV digest over (cycle, label,
    value) triples is what logic scans (see {!Bg_bringup}) capture.

    Recording full records is optional (it costs memory on long runs); the
    digest is always maintained. *)

type record = { cycle : Cycles.t; label : string; value : int64 }

type t

val create : ?keep_records:bool -> unit -> t
(** [keep_records] defaults to [false]: only the digest is kept. *)

val label : string -> Fnv.Label.t
(** Declare an event label, once, where the emitting unit is defined: its
    fold then costs a table lookup, not a pass over its bytes. *)

val emit : t -> cycle:Cycles.t -> label:Fnv.Label.t -> value:int -> unit
(** Append an observable event. The digest folds the cycle, the label's
    text and [value] as the eight bytes of [Int64.of_int value], and a
    kept record holds that text and that [int64]. Allocates nothing
    unless [keep_records] is set. *)

val digest : t -> Fnv.t
(** Digest over every event emitted so far. *)

val count : t -> int
(** Number of events emitted so far. *)

val records : t -> record list
(** Recorded events, oldest first. Empty unless [keep_records] was set.
    Builds a fresh reversed list on every call — O(n) allocation each
    time. Prefer {!iter} anywhere called repeatedly or on long traces;
    [records] remains for tests and one-shot dumps. *)

val iter : t -> (record -> unit) -> unit
(** [iter t f] applies [f] to each recorded event, oldest first, without
    copying the record list. Digest and record contents are exactly
    those {!records} would return. *)

val last_cycle : t -> Cycles.t
(** Cycle of the most recent event, or 0 if none. *)
