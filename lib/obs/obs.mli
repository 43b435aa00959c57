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
      start small and double on demand up to a fixed capacity, then
      overwrite the oldest span (CNK-style: no allocation growth in
      steady state); metrics are O(distinct keys).

    The stream of completed spans folds into its own FNV digest
    ({!digest}), so observability output is itself reproducibility-
    checkable, independently of the architectural trace. *)

type t

val node_scope : int
(** Sentinel rank/core (-1) for machine- or node-level metrics. *)

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
    Callers pass [now] explicitly — the collector holds no clock. *)

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

val abandon_open : t -> handle -> unit
(** Discard an open span without recording it (e.g. thread death). *)

val spans : t -> span list
(** All retained spans across scopes in a total, deterministic order:
    by start cycle, ties broken by (rank, core), then by completion
    sequence — never by hash-table iteration order. *)

val span_count : t -> int
(** Completed spans ever recorded, including overwritten ones. *)

val dropped_spans : t -> int
(** Spans overwritten by ring wraparound, summed over scopes. *)

val open_count : t -> int
(** Spans begun but not yet ended. *)

val digest : t -> Bg_engine.Fnv.t
(** FNV digest over every completed span, in completion order. *)

(** {1 Metrics}

    Counters, gauges and cycle-latency timers keyed by
    (subsystem, name, rank, core). [rank]/[core] default to
    {!node_scope}. All writes are no-ops while disabled. *)

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
