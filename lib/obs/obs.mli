(** Kernel-wide observability: per-rank metrics and cycle-stamped spans.

    Every machine carries one collector ({!Machine.t}'s [obs] field),
    disabled by default. Kernels, the I/O layer, the scheduler and the
    noise injectors report into it; exporters ({!Export}) turn the
    result into Chrome trace-event JSON and CSV.

    Two invariants make this safe to leave compiled into every hot path:

    - {b Passive.} The collector never schedules simulator events, never
      draws randomness, and never touches the architectural {!Trace} —
      so for a fixed seed the [Sim] trace digest is bit-identical with
      collection on or off.
    - {b Bounded.} Completed spans land in per-(rank,core) rings that
      start small and grow by segments on demand up to a fixed
      capacity, then overwrite the oldest span (CNK-style: no
      allocation growth in steady state); metrics are one flat slot
      per (scope, declared metric).

    The stream of completed spans folds into its own FNV digest
    ({!digest}), so observability output is itself reproducibility-
    checkable, independently of the architectural trace. *)

val node_scope : int
(** Sentinel rank/core (-1) for machine- or node-level metrics. *)

(** A directory of per-(rank, core) values, as the collectors keep them.

    Ranks and cores from -1 ({!node_scope}) up index a dense grid,
    [rows.(rank + 1).(core + 1)], grown on demand, so a lookup is two
    array indexings: no tuple key, no hash. Any other scope (a rank or
    core below -1) goes on a short list. A fresh directory is one small
    record; its rows appear as scopes are set. *)
module Scope_dir : sig
  type 'a t

  val create : 'a -> 'a t
  (** [create empty]: every scope starts at [empty], which {!find} returns
      for a scope that was never set. *)

  val find : 'a t -> rank:int -> core:int -> 'a

  val set : 'a t -> rank:int -> core:int -> 'a -> unit

  val iter : 'a t -> (rank:int -> core:int -> 'a -> unit) -> unit
  (** Every set scope, in (rank, core) order. *)

  val clear : 'a t -> unit
end

(** {1 Metric schema}

    Every metric has one declaration: subsystem, name, unit, kind, the
    scopes it is recorded at and a one-line definition. A declaration
    returns an integer handle; hot paths pass that handle to {!add},
    {!set} and {!observe}, which index a flat per-scope slot without
    hashing a name. The string API ({!incr}, {!counter_value}, ...)
    resolves a name through the same registry into the same storage; a
    name nobody declared is registered on first use and stays out of
    {!Metric.markdown_table}. Declaring one [(subsystem, name)] twice for the
    same kind raises [Invalid_argument]. *)
module Metric : sig
  type scope =
    | Node  (** machine or control system: rank and core are {!node_scope} *)
    | Rank  (** one node: core is {!node_scope} *)
    | Core  (** one (rank, core) *)
    | Tenant  (** one scheduler tenant: the rank field holds the tenant id *)

  type counter
  type gauge
  type timer

  val counter :
    subsystem:string -> name:string -> unit:string -> scopes:scope list -> string -> counter

  val gauge : subsystem:string -> name:string -> unit:string -> scopes:scope list -> string -> gauge

  val timer :
    ?hi:float -> subsystem:string -> name:string -> unit:string -> scopes:scope list -> string -> timer
  (** [hi] (default 2{^20} cycles) is the upper edge of every scope's
      64-bin histogram. *)

  (** A finite family of names sharing one definition, e.g. one counter
      per syscall kind: one handle per name, in [names] order. *)

  val counters_family :
    subsystem:string ->
    names:string array ->
    pattern:string ->
    unit:string ->
    scopes:scope list ->
    string ->
    counter array

  val gauges_family :
    subsystem:string ->
    names:string array ->
    pattern:string ->
    unit:string ->
    scopes:scope list ->
    string ->
    gauge array

  val timers_family :
    subsystem:string ->
    names:string array ->
    pattern:string ->
    unit:string ->
    scopes:scope list ->
    string ->
    timer array

  val is_declared : subsystem:string -> name:string -> bool
  (** Whether some declaration, of any kind, names [subsystem.name]. *)

  val markdown_table : unit -> string
  (** The schema as a Markdown table (name, unit, kind, scope,
      definition), one row per declaration, sorted by name. A family's
      row carries its [pattern] as the name and lists its members. *)
end

type t


val create : ?ring_capacity:int -> ?enabled:bool -> unit -> t
(** [ring_capacity] (default 1024) bounds each per-(rank,core) span ring.
    [enabled] defaults to [false]: all record calls are cheap no-ops. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val ring_capacity : t -> int

val reset : t -> unit
(** Drop all spans and metrics; keep enablement and capacity. *)

(** {1 Spans}

    A span is a cycle-stamped interval attributed to a (rank, core)
    scope and a category ("syscall", "cio", "tlb", "scheduler", ...).
    Callers pass [now] explicitly — the collector holds no clock.

    A span's [(cat, name)] is a {!label}: an id into the process-wide
    {!Bg_engine.Fnv.Label} registry of declared labels, which the rings
    and the open-span table store as an int. Hot paths declare their
    labels once with {!label} and call {!span_begin_l} /
    {!span_record_l}, whose digest fold is then one table lookup.
    {!span_begin} and {!span_record} take the strings, look them up with
    one hash, and record the same bytes. A pair nobody declared (a
    per-job name) stays in this collector's own name table
    ({!local_names}), folds byte by byte and gets no fold table; the
    table drops names no retained or open span carries once it fills,
    and empties on {!reset}. *)

type label = Bg_engine.Fnv.Label.t

val label : cat:string -> name:string -> label
(** Declare a span (or causal node) label; declaring it again returns
    the same label. *)

type span = {
  cat : string;
  name : string;
  rank : int;
  core : int;
  start : Bg_engine.Cycles.t;
  finish : Bg_engine.Cycles.t;
  depth : int;  (** nesting depth within the scope at begin time *)
  seq : int;    (** global completion order across all scopes *)
}

type handle

val null_handle : handle
(** Returned when disabled; {!span_end} on it is a no-op. *)

val span_begin :
  t -> cat:string -> name:string -> rank:int -> core:int -> now:Bg_engine.Cycles.t -> handle

val span_begin_l : t -> label -> rank:int -> core:int -> now:Bg_engine.Cycles.t -> handle
(** {!span_begin} on a label. *)

val span_end : t -> handle -> now:Bg_engine.Cycles.t -> unit
(** Completes the span and pushes it into its scope's ring. Ending an
    unknown (or already-ended) handle is a no-op. A handle opened while
    the collector was enabled is closed even if it has been disabled
    since; the span is then not recorded. *)

val span_record :
  t ->
  cat:string ->
  name:string ->
  rank:int ->
  core:int ->
  start:Bg_engine.Cycles.t ->
  finish:Bg_engine.Cycles.t ->
  unit
(** One-shot complete span, for intervals whose end is known at record
    time (e.g. a TLB map swap of computed cost). *)

val span_record_l :
  t ->
  label ->
  rank:int ->
  core:int ->
  start:Bg_engine.Cycles.t ->
  finish:Bg_engine.Cycles.t ->
  unit
(** {!span_record} on a label. *)

val abandon_open : t -> handle -> unit
(** Discard an open span without recording it (e.g. thread death). *)

val spans : t -> span list
(** All retained spans across scopes in a total, deterministic order:
    by start cycle, ties broken by (rank, core), then by completion
    sequence — never by hash-table iteration order. *)

val span_count : t -> int
(** Completed spans ever recorded, including overwritten ones. *)

val local_names : t -> int
(** Undeclared [(cat, name)] pairs the collector holds for its spans. *)

val dropped_spans : t -> int
(** Spans overwritten by ring wraparound, summed over scopes. *)

val open_count : t -> int
(** Spans begun but not yet ended. *)

val digest : t -> Bg_engine.Fnv.t
(** FNV digest over every completed span, in completion order. *)

(** {1 Metrics}

    Counters, gauges and cycle-latency timers keyed by
    (subsystem, name, rank, core). In the string API [rank]/[core]
    default to {!node_scope}. All writes are no-ops while disabled. *)

val add : t -> rank:int -> core:int -> Metric.counter -> int -> unit
(** [add t ~rank ~core c n] bumps a declared counter by [n]. The handle
    operations take every argument explicitly, so a call allocates
    nothing. *)

val count : t -> Metric.counter -> unit
(** Bump a declared counter by one at {!node_scope}. *)

val set : t -> rank:int -> core:int -> Metric.gauge -> int -> unit
(** Set a declared gauge. *)

val observe : t -> rank:int -> core:int -> Metric.timer -> int -> unit
(** Feed a latency sample (cycles) into a declared timer, whose
    histogram has the declared shape. *)

(** The same operations by name, resolved through the schema's
    registry. *)

val incr :
  t -> ?rank:int -> ?core:int -> subsystem:string -> name:string -> ?by:int -> unit -> unit

val set_gauge : t -> ?rank:int -> ?core:int -> subsystem:string -> name:string -> int -> unit

val observe_cycles :
  t ->
  ?rank:int ->
  ?core:int ->
  ?hi:float ->
  ?bins:int ->
  subsystem:string ->
  name:string ->
  int ->
  unit
(** Feed a latency sample (cycles) into the keyed timer: a
    {!Bg_engine.Stats.Online} accumulator plus a fixed-width
    {!Bg_engine.Stats.Histogram} ([lo]=0, [hi] default 2{^20} cycles,
    [bins] default 64; out-of-range samples clamp into the edge bins).
    Histogram shape is fixed by the first observation of a key. *)

val counter_value :
  t -> ?rank:int -> ?core:int -> subsystem:string -> name:string -> unit -> int
(** 0 when the counter was never touched. *)

val counter_total : t -> subsystem:string -> name:string -> int
(** Sum of a counter over all (rank, core) scopes. *)

val gauge_value :
  t -> ?rank:int -> ?core:int -> subsystem:string -> name:string -> unit -> int option

val timer_stats :
  t ->
  ?rank:int ->
  ?core:int ->
  subsystem:string ->
  name:string ->
  unit ->
  Bg_engine.Stats.Online.t option

val timer_histogram :
  t ->
  ?rank:int ->
  ?core:int ->
  subsystem:string ->
  name:string ->
  unit ->
  Bg_engine.Stats.Histogram.t option

(** {1 Snapshot} *)

type key = { subsystem : string; name : string; rank : int; core : int }

type value =
  | Counter of int
  | Gauge of int
  | Timer of {
      n : int;
      mean : float;
      min : float;
      max : float;
      sum : float;  (** sum of samples as observed (pre-clamp) *)
      p50 : float;
      p90 : float;
      p99 : float;
      p999 : float;
          (** histogram percentiles ({!Bg_engine.Stats.Histogram.percentile});
              resolution is one bin width *)
    }

type metric = { key : key; value : value }

val snapshot : t -> metric list
(** Every live metric, sorted by (subsystem, name, rank, core) — a
    deterministic order regardless of hash-table internals. *)

val pp_metric : Format.formatter -> metric -> unit

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Hashtable
    contents are sorted before writing, so the bytes are deterministic. *)
