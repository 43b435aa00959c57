(** A whole simulated installation: chips wired to the three networks.

    Both kernels, the messaging stack and the bringup tooling share this
    view. Chip [i] is the compute node with torus rank [i]. *)

type ras_severity = Ras_info | Ras_warn | Ras_error

type health_service = {
  h_ts : Bg_obs.Timeseries.t;  (** windowed rollups over [obs] *)
  h_db : Bg_obs.Rasdb.t;  (** every RAS event, indexed and queryable *)
  h_svc : Bg_obs.Health.t;  (** alert rules + flight recorder *)
}

type t = {
  instance : int;  (** unique per machine created in this OS process *)
  sim : Bg_engine.Sim.t;
  params : Bg_hw.Params.t;
  chips : Bg_hw.Chip.t array;
  torus : Bg_hw.Torus.t;
  collective : Bg_hw.Collective_net.t;
  barrier : Bg_hw.Barrier_net.t;
  dma : Bg_hw.Dma.t array;
      (** per-chip torus DMA engines, indexed by rank; inert until
          something injects a descriptor *)
  obs : Bg_obs.Obs.t;
      (** the machine's observability collector; disabled unless turned
          on with [Bg_obs.Obs.set_enabled] (or passed in at {!create}) *)
  acct : Bg_obs.Accounting.t;
      (** the machine's cycle-accounting ledger; disabled unless turned
          on with [Bg_obs.Accounting.set_enabled] *)
  causal : Bg_obs.Causal.t;
      (** the machine's causal-event graph; disabled unless turned on
          with [Bg_obs.Causal.set_enabled] (or passed in at {!create}).
          Seeded from the simulation seed, so same-seed runs mint
          identical node ids. *)
  mutable health : health_service option;
      (** the machine health service; [None] until {!attach_health} *)
  mutable ras_subscribers :
    (rank:int -> severity:ras_severity -> message:string -> unit) list;
      (** use {!on_ras} / {!ras_emit} rather than touching this directly *)
  mutable launch_text : (string * int * bytes) option;
      (** the program text the last CNK launch wrote: (image name,
          length, bytes); use {!launch_text} *)
}

val create :
  ?params:Bg_hw.Params.t ->
  ?seed:int64 ->
  ?nodes_per_io_node:int ->
  ?obs:Bg_obs.Obs.t ->
  ?causal:Bg_obs.Causal.t ->
  ?dma_fifo_depth:int ->
  dims:int * int * int ->
  unit ->
  t
(** Build a machine with [x*y*z] nodes. [nodes_per_io_node] defaults to the
    whole machine sharing one I/O node when small (<= 64 nodes), else 64.
    [obs] defaults to a fresh, disabled collector. [dma_fifo_depth]
    overrides the DMA injection-FIFO depth (mainly to provoke
    stall-on-full in tests). *)

val nodes : t -> int
val chip : t -> int -> Bg_hw.Chip.t
val dma : t -> int -> Bg_hw.Dma.t
val sim : t -> Bg_engine.Sim.t

val launch_text : t -> name:string -> len:int -> (unit -> bytes) -> bytes
(** The program text of [len] bytes for image [name]: the bytes the last
    call with the same name and length returned, else [draw ()], which
    then replaces that entry. [draw] must be a pure function of the name
    and length, and callers must not mutate the result. All nodes of a
    machine share the entry, so the launches of one job start draw the
    text once. *)

val obs : t -> Bg_obs.Obs.t
val acct : t -> Bg_obs.Accounting.t
val causal : t -> Bg_obs.Causal.t

val publish_net_gauges : t -> rank:int -> unit
(** Push the rank's DMA FIFO occupancy/stall counters and per-link torus
    busy-cycle totals into the metrics registry; no-op while the
    collector is disabled. *)

(** {1 Machine health service}

    The service-node layer the paper's §VI says CNK leans on: RAS
    events stream into a queryable database, the metrics registry rolls
    up into cycle-windowed time series, alert rules watch the series,
    and a flight recorder captures a postmortem bundle on fatal faults
    and firing alerts. Attaching it enables the [obs] collector but is
    otherwise digest-passive: same-seed simulation/span/causal digests
    are byte-identical with the service attached or not. *)

val attach_health :
  ?window:Bg_engine.Cycles.t ->
  ?ring:int ->
  ?db_capacity:int ->
  ?recorder:Bg_obs.Health.recorder_config ->
  ?rules:Bg_obs.Health.rule list ->
  t ->
  health_service
(** Build and wire the health service: subscribe the {!Bg_obs.Rasdb} to
    the machine RAS stream (mirroring severity totals into [ras.*]
    gauges), register the hardware-gauge sampling probe (DMA FIFOs,
    torus link state, UPC readings), route firing alerts back onto the
    RAS stream as typed [HEALTH] events, and arm the sampling tick
    (every [window] cycles, default 100_000). Idempotent: a second call
    returns the existing service. *)

val health : t -> health_service option

val rasdb_severity : ras_severity -> Bg_obs.Rasdb.severity

(** {1 RAS events}

    Blue Gene's Reliability/Availability/Serviceability stream: kernels
    report notable events (guard-page kills, parity errors, unit faults)
    and the service node collects them. The machine carries a simple
    pub-sub so producers (kernels) need not know about collectors. *)

val on_ras : t -> (rank:int -> severity:ras_severity -> message:string -> unit) -> unit
(** Subscribe; multiple subscribers all receive every event. *)

val ras_emit : t -> rank:int -> severity:ras_severity -> message:string -> unit
val ras_severity_to_string : ras_severity -> string

(** {1 Snapshot / restore}

    The machine-level half of the [lib/snap] subsystem: [capture] turns
    live state into named snapshot regions, [snapshot] wraps them in a
    {!Bg_snap.Snap.file}, and [restore] replays a rebuilt scenario to the
    snapshot's event cursor and byte-verifies it. Kernel layers add
    their own regions through [extra]. *)

val capture : t -> Bg_snap.Snap.region list
(** One region per machine layer: ["engine.sim"], ["hw.chips"],
    ["hw.torus"], ["hw.collective"], ["hw.barrier"], ["hw.dma"],
    ["obs.spans"], ["obs.acct"], ["obs.causal"]. *)

val snapshot :
  t ->
  scenario:string ->
  knobs:(string * string) list ->
  ?extra:Bg_snap.Snap.region list ->
  unit ->
  Bg_snap.Snap.file
(** Capture the machine at its current event cursor. [extra] appends
    kernel-layer regions (CNK/FWK node state, CIOD, scheduler). *)

val verify :
  t -> ?extra:Bg_snap.Snap.region list -> Bg_snap.Snap.file -> (unit, Bg_snap.Snap.mismatch) result
(** Byte-compare a fresh capture against [file]'s regions. *)

type restore_error =
  | Cursor_passed of { fired : int; wanted : int }
  | Queue_drained of { fired : int; wanted : int }
  | Restore_mismatch of Bg_snap.Snap.mismatch

val restore_error_to_string : restore_error -> string

val restore :
  t -> ?extra:(unit -> Bg_snap.Snap.region list) -> Bg_snap.Snap.file -> (unit, restore_error) result
(** Replay-based restore: with the scenario already rebuilt on this
    machine (same seed, same knobs, same construction order — the
    machine must not have fired past the cursor), pump the simulator
    one event at a time to the snapshot's event count, then verify
    every region byte-for-byte. [extra] is consulted after the replay
    for kernel-layer regions. Event payloads are closures, so direct
    state installation is impossible; determinism makes replay exact
    and verification proves it (gem5-checkpoint style). *)
