(** A queryable RAS event database — the service-node side of Blue
    Gene's Reliability/Availability/Serviceability stream.

    The paper's §VI lesson: CNK stays simple because every notable event
    streams off the compute nodes into a central database operators can
    {e query} — by severity, by component, by location, by time window —
    to find sick hardware before it kills jobs. This module is that
    database for the simulated machine: a bounded ring of typed records
    with O(1) severity counts and per-component / per-rank indexes,
    replacing ad-hoc scans of the raw message ring.

    It deliberately knows nothing about [Machine] (the dependency runs
    the other way): records arrive through {!add} from
    [Machine.ras_store], the one place the machine's typed RAS events
    become text. *)

type severity = Info | Warn | Error

val severity_name : severity -> string
(** ["info"] / ["warn"] / ["error"]. *)

val severity_ord : severity -> int

type record = {
  seq : int;  (** global insertion index, 0-based, never reused *)
  cycle : Bg_engine.Cycles.t;
  rank : int;
  severity : severity;
  component : string;  (** coarse event class, given by the producer *)
  message : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Retain at most [capacity] records (default 4096); older records are
    evicted (counted in {!dropped}) but stay in the aggregate counts. *)

val capacity : t -> int

val add :
  t ->
  cycle:Bg_engine.Cycles.t ->
  rank:int ->
  severity:severity ->
  component:string ->
  message:string ->
  record
(** Insert and return the stored record. *)

val on_insert : t -> (record -> unit) -> unit
(** Subscribe to every insertion (after indexes are updated) — the
    health service's flight recorder hangs off this. *)

(** {1 Queries} *)

val count : t -> int
(** Records ever inserted (including evicted ones). *)

val retained : t -> int
val dropped : t -> int

val severity_count : t -> severity -> int
(** Aggregate over all records ever inserted; O(1). *)

val component_count : t -> string -> int
(** Aggregate per component; O(1). *)

val rank_count : t -> int -> int
(** Aggregate per rank; O(1). *)

val components : t -> string list
(** Every component ever seen, sorted. *)

val records :
  t ->
  ?severity:severity ->
  ?component:string ->
  ?rank:int ->
  ?since:Bg_engine.Cycles.t ->
  unit ->
  record list
(** Retained records matching every given filter, oldest first.
    [since] keeps records with [cycle >= since]. *)

val tail : t -> int -> record list
(** The last [n] retained records, oldest first. *)

val rate :
  t ->
  ?severity:severity ->
  ?component:string ->
  ?rank:int ->
  window:Bg_engine.Cycles.t ->
  now:Bg_engine.Cycles.t ->
  unit ->
  int
(** Matching retained records with [cycle] in [(now - window, now]] — a
    windowed rate query ("how many ciod retransmit faults in the last
    million cycles?"). Evicted records are gone; size [capacity]
    accordingly. *)

val publish_gauges : t -> Obs.t -> unit
(** Mirror the aggregate severity counts (plus total and dropped) into
    the metrics registry as node-scope gauges [ras.info] / [ras.warn] /
    [ras.error] / [ras.total] / [ras.dropped] — one source of truth for
    rasdb, obs_tool and alert rules. No-op while [obs] is disabled. *)

val digest : t -> Bg_engine.Fnv.t
(** FNV over every record ever inserted, in insertion order. *)

val pp_record : Format.formatter -> record -> unit
