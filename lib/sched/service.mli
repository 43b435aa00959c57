(** The control system as a service: an open-arrival job stream driven
    through the scheduler under a pluggable strategy.

    {!create} builds a scheduler on a booted cluster, installs the
    requested {!Strategy}, and indexes a {!Workload} — every spec keeps
    its tenant, class and communication profile. {!run} replays the
    stream: each arrival burst is offered through the admission-
    controlled front door ({!Bg_control.Scheduler.offer_factory}) with
    the tenant/gang/estimate metadata the strategies and the [sched.*]
    SLO series need, then the simulation is pumped until the queue
    drains. Communication-heavy jobs launch real torus transfer waves
    between their member ranks, so the congestion the {!Placer} scores
    is traffic this very workload created.

    Everything — arrivals, placement, faults injected by the caller
    mid-stream — runs inside the one deterministic simulation, so a
    whole sweep is a pure function of (seed, workload, strategy). *)

type t

val create :
  ?restart_limit:int ->
  ?comm_bytes:int ->
  ?comm_waves:int ->
  kind:Strategy.kind ->
  Cnk.Cluster.t ->
  Workload.spec list ->
  t
(** [restart_limit] (default 1) is the requeue budget batch jobs get
    against node deaths; interactive and filler jobs get none.
    [comm_bytes] (default 4096) and [comm_waves] (default 2) size the
    transfer waves a communication-heavy job sends between consecutive
    member-rank pairs at launch. *)

val scheduler : t -> Bg_control.Scheduler.t
(** Exposed so resilience policies and injectors can attach before
    {!run}. *)

val strategy : t -> Strategy.t

val run : t -> unit
(** Schedule every arrival (offset past the current cycle), kick, and
    run the simulation until all admitted jobs reach a terminal state.
    @raise Bg_engine.Sim.Stalled if the run ends first ([waiting] is the
    outstanding jobs plus the undelivered bursts). *)

val offered : t -> int
(** Arrivals presented to the front door so far. *)

val refused : t -> int
(** Arrivals bounced by closed admission. *)

val spec_of_job : t -> Bg_control.Scheduler.job_id -> Workload.spec option
val jobs : t -> (Bg_control.Scheduler.job_id * Workload.spec) list
(** Admitted jobs in ascending job-id order. *)

val makespan : t -> Bg_engine.Cycles.t
(** Cycles from the start of {!run} to the last event pumped. *)

val tenants_of : Workload.spec list -> (int * string * int) list
(** Distinct [(id, name, weight)] triples, ascending id — the shape
    {!Slo.collect} wants. *)

val placeable_nodes : dims:int * int * int -> int -> int
(** Largest [n' <= nodes] with an axis-aligned factorization fitting
    [dims] — how an unplaceable request (say 7 nodes on a 4x4x4 torus)
    is rounded down at submission. *)
