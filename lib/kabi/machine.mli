(** A whole simulated installation: chips wired to the three networks.

    Both kernels, the messaging stack and the bringup tooling share this
    view. Chip [i] is the compute node with torus rank [i]. *)

(** {1 RAS events}

    Blue Gene's Reliability/Availability/Serviceability stream: kernels,
    the injector, the control system and the health service report
    notable events and the service node collects them. Events travel as
    values; {!ras_store} is the one place they become text. *)

(** A hardware or I/O-daemon fault. *)
type fault =
  | L1_parity of { rank : int; core : int }
      (** transient L1 data-cache parity error — CNK recovers in place *)
  | Node_death of { rank : int }  (** the node is gone for good *)
  | Link_failure of { rank : int; dir : int }  (** torus link [dir] (0-5) *)
  | Link_repair of { rank : int; dir : int }
  | Ciod_crash of { io_node : int; fatal : bool }
      (** the I/O node's daemon died mid-flight; [fatal] means no restart
          is coming and the whole pset is lost *)
  | Ciod_restart of { io_node : int }  (** the daemon came back *)

type death_cause =
  | Crashed of string  (** the thread raised; the exception's text *)
  | Unhandled_signal of int
  | Segv of string
      (** an access faulted and the process had no SIGSEGV handler (the
          FWK); the fault's text *)

(** Who wrote a {!Note}: a kernel, the job scheduler or the healing
    policy. A note files under that component. *)
type note_from = Kernel | Sched | Heal

type ras_event =
  | Fault of fault
  | Alert of Bg_obs.Health.alert  (** a firing health-service rule *)
  | Thread_death of { tid : int; cause : death_cause }
      (** a kernel killed an application thread; the control system
          gang-kills its job *)
  | Note of { from : note_from; severity : Bg_obs.Rasdb.severity; text : string }
      (** text nobody acts on: guard hits, parity lines, EIO, scheduler
          and healing notices *)

val fault_rank : fault -> int
(** For CIOD events this is the I/O-node index, not a compute rank. *)

val fault_severity : fault -> Bg_obs.Rasdb.severity

val ras_store :
  Bg_obs.Rasdb.t -> cycle:Bg_engine.Cycles.t -> rank:int -> ras_event -> Bg_obs.Rasdb.record
(** Render [ev] and insert it. A fault's message is
    ["FAULT <component> <fields>"] with its class as the component
    ([parity], [node_death], [link], [link_up], [ciod_crash],
    [ciod_up]); an alert is ["HEALTH alert rule=... value=%.17g ..."]
    under [health] at its rule's severity; thread deaths
    (["tid N crashed: ..."], ["tid N killed by unhandled signal S"],
    [Error]) and notes file under [kernel]. *)

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
  mutable ras_subscribers : (rank:int -> ras_event -> unit) list;
      (** use {!on_ras} / {!ras_emit} rather than touching this directly *)
  mutable launch_text : (string * int * bytes) option;
      (** the program text the last settled CNK text write drew: (image
          name, length, bytes); use {!launch_text} *)
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
    machine share the entry, so a capture or scan that settles the
    deferred text writes of every node of one job draws the text once. *)

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
  (health_service, Bg_obs.Health.rule_error) result
(** Build and wire the health service: subscribe the {!Bg_obs.Rasdb} to
    the machine RAS stream through {!ras_store} (mirroring severity
    totals into [ras.*] gauges), register the hardware-gauge sampling
    probe (DMA FIFOs, torus link state, UPC readings), route firing
    alerts back onto the RAS stream as {!Alert} events, and arm the
    sampling tick (every [window] cycles, default 100_000). A rule
    {!Bg_obs.Health.create} rejects is the error, and nothing is wired.
    Idempotent: a second call returns the existing service. *)

val health : t -> health_service option

val on_ras : t -> (rank:int -> ras_event -> unit) -> unit
(** Subscribe; multiple subscribers all receive every event, newest
    subscriber first. *)

val ras_emit : t -> rank:int -> ras_event -> unit

val ras_note : t -> rank:int -> from:note_from -> Bg_obs.Rasdb.severity -> string -> unit
(** [ras_emit] of a {!Note}. *)

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
    machine must not have fired past the cursor), run the simulator
    with an event budget up to the snapshot's event count, then verify
    every region byte-for-byte. [extra] is consulted after the replay
    for kernel-layer regions. Event payloads are closures, so direct
    state installation is impossible; determinism makes replay exact
    and verification proves it (gem5-checkpoint style). *)
