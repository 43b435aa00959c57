(** Per-core OS interference generators for the FWK baseline.

    Linux noise as the FWQ literature characterizes it: a periodic timer
    tick plus a population of kernel daemons with jittered periods and
    costs. Each core owns independent deterministic streams; the per-core
    daemon sets are sized so cores 0/2/3 show the >5% FWQ spread and core 1
    the ~1.5% spread of the paper's Figs 5–7 (core 1 hosted fewer daemons
    on the measured node).

    The model exposes one operation: walk a computation of [work] cycles
    through the interference timeline and return when it actually
    finishes. Events are consumed lazily and deterministically. *)

type daemon = {
  daemon_name : string;
  period_mean : float;    (** cycles between activations *)
  period_jitter : float;  (** uniform +/- jitter fraction of the period *)
  cost_mean : float;      (** cycles stolen per activation *)
  cost_jitter : float;
}

val default_tick_interval : int
(** 1 kHz at 850 MHz. *)

val default_tick_cost : int

val suse_daemon_set : core:int -> daemon list
(** The paper's measurement environment: a SUSE 2.6.16-era daemon
    population, heavier on cores 0, 2 and 3 than on core 1. *)

val quiet_daemon_set : core:int -> daemon list
(** A "daemons suspended" configuration: ticks only. *)

val io_node_daemon_set : core:int -> daemon list
(** The paper's §V.D Linux baseline environment: BG/P I/O nodes with "NFS
    required to capture results between tests" — the SUSE set plus NFS
    client writeback bursts (rare, tens of microseconds). *)

type t

val create :
  ?tick_interval:int ->
  ?tick_cost:int ->
  daemons:daemon list ->
  rng:Bg_engine.Rng.t ->
  unit ->
  t
(** One core's interference source. [rng] must be a dedicated stream.
    @raise Invalid_argument when [tick_interval <= 0], [tick_cost < 0]
    or a daemon's [period_mean] is under one cycle (or NaN), before any
    draw. *)

val advance : t -> start:Bg_engine.Cycles.t -> work:int -> Bg_engine.Cycles.t
(** Finish time of [work] cycles of computation starting at [start],
    including every tick and daemon activation that lands in the window
    (each stolen interval extends the window, possibly admitting more
    events — the walk iterates to the true fixpoint). Calls must be made
    with nondecreasing [start] (a core's timeline moves forward).
    Allocates nothing but the RNG's boxed floats of a daemon draw. *)

val window_tick : t -> int
(** Cycles the last {!advance} window lost to timer ticks. *)

val window_daemon : t -> int
(** Cycles the last {!advance} window lost to daemons. With
    {!window_tick}, the raw material for per-source noise attribution. *)

val stolen_cycles : t -> int
(** Total interference charged so far. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state (tick phase, daemon phases, RNG
    position, stolen-cycle total) into [b], little-endian. *)
