(** Scenario registry and divergence bisection on top of [lib/snap].

    A scenario builds a whole machine from (seed, knobs), deterministic
    to the byte; restore is replay (see {!Bg_kabi.Machine.restore}).
    Because every machine digest is cumulative, divergence between two
    knob settings is monotone in the event count and binary search over
    restore points finds the exact first divergent event. *)

type instance = {
  machine : Bg_kabi.Machine.t;
  extra : unit -> Bg_snap.Snap.region list;
      (** kernel-layer snapshot regions (CNK/FWK node state, CIOD) *)
}

type scenario = {
  scn_name : string;
  scn_doc : string;
  build : seed:int64 -> knobs:(string * string) list -> instance;
}

val scenarios : scenario list
(** ["cnk_io"]: two CNK nodes function-shipping pwrites to one CIOD.
    ["fwk_noise"]: one FWK node running FWQ quanta under timer ticks.
    Both accept a ["glitch"] knob that perturbs exactly one event at
    ["glitch_cycle"] — the probe event is scheduled under either
    setting so the queue shape stays identical and only the action
    differs. *)

val find : string -> scenario option

val parse_knob : string -> string * string
(** ["k=v"] to [("k", "v")]; bare ["k"] to [("k", "1")]. *)

val run_to : instance -> events:int -> [ `Reached | `Drained of int ]
(** Run the simulator with an event budget up to the cursor. *)

val run_until_quiet : instance -> int
(** Drain the queue; returns the final event count. *)

val snapshot_of :
  scenario -> instance -> knobs:(string * string) list -> Bg_snap.Snap.file

val snapshot_at :
  scenario ->
  seed:int64 ->
  knobs:(string * string) list ->
  events:int ->
  instance * Bg_snap.Snap.file * [ `Reached | `Drained of int ]
(** Fresh build, run to the cursor, capture. *)

val restore : scenario -> Bg_snap.Snap.file -> (instance, string) result
(** Rebuild the snapshot's scenario from its recorded (seed, knobs),
    replay to its event cursor and byte-verify every region. *)

val run_with_snapshots :
  scenario ->
  seed:int64 ->
  knobs:(string * string) list ->
  thresholds:int list ->
  instance * (int * Bg_snap.Snap.file) list * (int * Bg_snap.Snap.file)
(** One boot; capture in flight at every threshold reached, then drain
    and capture the final state. *)

type digests = {
  dg_trace : int64;
  dg_spans : int64;
  dg_causal : int64;
  dg_clock : int;
  dg_fired : int;
}

val digests : instance -> digests
(** The cumulative digests behind the restore-continuation invariant:
    snapshot at N, restore, continue — these must equal the
    uninterrupted run's. *)

val pp_digests : Format.formatter -> digests -> unit

type divergence = {
  div_event : int;  (** first event count at which the runs differ *)
  div_region : Bg_snap.Snap.mismatch;
  div_span : (string * Bg_obs.Obs.span) option;
      (** which side (["a"]/["b"]) has the extra span, and the span *)
  div_causal : string list;  (** pretty-printed causal neighborhood *)
  div_probes : int;  (** binary-search restore probes used *)
  div_captures : int;  (** captures taken while bracketing *)
}

val bisect :
  scenario ->
  seed:int64 ->
  knobs_a:(string * string) list ->
  knobs_b:(string * string) list ->
  ?start:int ->
  ?max_events:int ->
  ?log:(string -> unit) ->
  unit ->
  (divergence, string) result
(** Phase 1: one full run per knob set, snapshotting on a geometric
    event schedule (1024, 2048, ... by default) to bracket the first
    divergent capture. Phase 2: binary search inside the bracket —
    each probe replays both knob sets to the midpoint and compares
    captures — landing on the exact first divergent event in O(log)
    probes. *)

val report_lines : divergence -> string list
