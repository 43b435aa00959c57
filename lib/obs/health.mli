(** The machine health service: declarative alert rules over the
    {!Timeseries} rollups, typed alerts, and a deterministic flight
    recorder producing self-contained postmortem JSON bundles.

    Rules are threshold/rate predicates over any series in the rollup
    store — DMA FIFO stall counts, ciod retransmit rates, dropped
    spans, scheduler queue wait percentiles — evaluated once per sample
    window, independently for every (rank, core) scope that carries the
    series. An alert is {e edge-triggered}: it fires when its predicate
    has held for [for_windows] consecutive windows, then stays quiet
    until the predicate clears and trips again.

    On every firing alert — and on any [Error]-severity fault landing in
    the {!Rasdb} — the flight recorder captures a bounded postmortem
    bundle: the last-N spans per (rank, core), the causal neighborhood
    of the trigger, the full retained window history of the implicated
    series, the rasdb tail, and a snapshot reference — rendered as one
    RFC 8259-valid JSON report. Everything in the bundle is derived
    from cycle-stamped deterministic state, so two same-seed runs
    produce byte-identical reports.

    Like the rest of [Bg_obs] this module is machine-agnostic: it emits
    {!alert} values through an injected hook ({!set_emit}) and learns
    fault-to-series implication the same way ({!set_implicate}); the
    wiring, and the alert's RAS text, live in [Machine]. *)

(** {1 Alert rules} *)

type agg = Delta | Value | Rate | P50 | P99
(** What to read from the series each window: the counter delta, the
    gauge level, the delta normalized to events per million cycles, or
    a windowed timer percentile. *)

type op = Gt | Ge | Lt | Le

type rule = {
  rule_name : string;  (** no whitespace; travels in RAS messages *)
  subsystem : string;
  metric : string;
  agg : agg;
  op : op;
  threshold : float;
  for_windows : int;  (** consecutive windows before firing; >= 1 *)
  severity : Rasdb.severity;
}

val agg_name : agg -> string
val op_name : op -> string

val rule_to_string : rule -> string
(** The same grammar {!parse_rule} accepts. *)

val parse_rule : string -> (rule, string) result
(** Grammar (whitespace-separated):
    [<name>: <subsystem>.<metric> <agg> <op> <float> [for <n>] [<severity>]]
    where [<agg>] is [delta|value|rate|p50|p99], [<op>] is [>|>=|<|<=],
    and [<severity>] is [info|warn|error] (default [warn]).
    Example: ["retransmit_storm: cio.retransmits delta >= 8 for 2 error"]. *)

type rule_error =
  | Unknown_series of { rule : string; series : string }
      (** [series] is [<subsystem>.<metric>], which no metric declaration
          names: a misspelt series would otherwise parse and then
          silently match nothing *)
  | Bad_rule_name of string  (** empty, or holds whitespace *)
  | Bad_window_count of { rule : string; for_windows : int }  (** [for_windows < 1] *)

val rule_error_message : rule_error -> string

(** {1 Alerts} *)

type alert = {
  rule : string;
  severity : Rasdb.severity;
  series : string;  (** ["<subsystem>.<metric>:<agg>"] *)
  rank : int;
  core : int;
  window : int;
  at : Bg_engine.Cycles.t;
  value : float;
  threshold : float;
}

(** {1 The service} *)

type t

type recorder_config = {
  max_reports : int;  (** bundles retained per run (default 4) *)
  spans_per_scope : int;  (** last-N spans per (rank, core) (default 8) *)
  ras_tail : int;  (** rasdb records in the bundle (default 16) *)
  causal_last : int;  (** causal nodes in the neighborhood (default 24) *)
  series_windows : int;  (** window-history points per series (default 32) *)
}

val default_recorder : recorder_config

val create :
  ?recorder:recorder_config ->
  ?causal:Causal.t ->
  ts:Timeseries.t ->
  db:Rasdb.t ->
  rules:rule list ->
  unit ->
  (t, rule_error) result
(** Check every rule, then wire the service onto [ts]
    ({!Timeseries.on_window}: rule evaluation) and [db]
    ({!Rasdb.on_insert}: the flight recorder's fault trigger — any
    [Error] record whose component is not ["health"]). The first rule
    with an error is the result, and nothing is wired.

    Every rule must watch a declared metric ({!Obs.Metric.is_declared}).
    The schema is filled in as declaring modules initialise, and nearly
    every declaration lives in [Bg_kabi.Metrics]: the check is right only
    in a program that links that module, as every program that builds a
    [Bg_kabi.Machine] does. *)

val rules : t -> rule list
val ts : t -> Timeseries.t
val db : t -> Rasdb.t

val set_emit : t -> (alert -> unit) -> unit
(** Called once per firing alert, before the report is captured;
    [Machine.attach_health] routes this onto the machine RAS stream. *)

val set_implicate : t -> (component:string -> rank:int -> (string * string) list) -> unit
(** Map a fault record to the (subsystem, metric) pairs whose window
    history belongs in its postmortem bundle. *)

val set_snap_provider : t -> (unit -> string) -> unit
(** Provide the snapshot reference string embedded in each bundle
    (e.g. a replay cursor ["replay:seed=7,events=123,clock=456"]). *)

val alerts : t -> alert list
(** Every alert fired, in order. *)

val alert_count : t -> int

val firing : t -> alert list
(** Alerts currently in the firing state (predicate has not cleared),
    one per (rule, scope), in rule-then-scope order. *)

(** {1 Flight recorder} *)

val reports : t -> (string * string) list
(** Captured postmortem bundles as [(label, json)], oldest first; at
    most [max_reports]. Labels are ["alert:<rule>"] or
    ["fault:<component>"]. *)

val captures_suppressed : t -> int
(** Triggers ignored because [max_reports] bundles already exist. *)

val digest : t -> Bg_engine.Fnv.t
(** FNV over the rollup stream, the rasdb stream and every fired alert
    — one line to compare two runs' whole health state. *)
