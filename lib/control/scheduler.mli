(** The control-system job scheduler.

    Space-shares a booted {!Cnk.Cluster} among queued jobs: each job asks
    for a partition shape; the scheduler allocates it (FIFO, with optional
    backfill of smaller jobs past a blocked head), launches the job on the
    partition's ranks, and releases the partition when every member node
    reports completion. Because everything runs in one deterministic
    simulation, schedules are reproducible.

    The pending queue is an indexed structure ({!Jobq}): submits, restart
    requeues and backfill removals are O(1), so the offer/kick paths stay
    linear even with thousands of queued jobs.

    The pick logic is pluggable: {!set_dispatch} replaces the built-in
    FIFO/backfill scan with an external strategy (see the [Bg_sched]
    library for FCFS, EASY backfill, gang and fair-share strategies over
    torus-aware placement), which drives {!start_job}/{!start_jobs}
    directly.

    The resilience path (paper §V.B): {!node_failed} marks a node down in
    the allocator and kills the running job that spans it; a job submitted
    with a restart budget is then requeued at the head of the line and
    reallocated — excluding down nodes — so a checkpointed application can
    resume from its last committed state. *)

type job_id = int

type job_state =
  | Queued
  | Running of int list  (** the partition's ranks *)
  | Completed of Bg_engine.Cycles.t  (** completion cycle *)
  | Failed of Bg_engine.Cycles.t
      (** a job with a restart budget exhausted it (jobs without one
          always report [Completed], matching classic batch semantics);
          also the terminal state of a shed backfill job *)

type job_class =
  | Batch  (** the default: users are waiting on it *)
  | Backfill_class
      (** opportunistic filler — first to be shed when the machine
          degrades (see {!shed_backfill}) *)

(** Read-only view of a queued job, for pluggable strategies. *)
type job_info = {
  info_jid : job_id;
  info_shape : int * int * int;
  info_cls : job_class;
  info_tenant : int option;
  info_gang : int option;
  info_est : int option;  (** runtime estimate (cycles), if supplied *)
  info_walltime : int option;
  info_submitted : Bg_engine.Cycles.t;  (** current incarnation's submit cycle *)
  info_restarts : int;
}

type running_info = {
  run_info : job_info;
  run_ranks : int list;
  run_started : Bg_engine.Cycles.t;
}

type t

val create : ?backfill:bool -> Cnk.Cluster.t -> t
(** [backfill] (default false): allow a later job to start ahead of a
    blocked head-of-line job when space permits. *)

val submit :
  t -> ?walltime_cycles:int -> shape:int * int * int -> Job.t -> job_id
(** Enqueue; jobs start when {!drain} runs the machine. A job still
    running [walltime_cycles] after launch is killed on every node of its
    partition (threads exit 137), with a RAS event naming the job and its
    lead rank, and reported Completed. *)

val submit_factory :
  t ->
  ?walltime_cycles:int ->
  ?restart_limit:int ->
  ?cls:job_class ->
  ?tenant:int ->
  ?gang:int ->
  ?est_cycles:int ->
  shape:int * int * int ->
  (ranks:int list -> Job.t) ->
  job_id
(** Like {!submit}, but the job image is built per launch from the ranks
    actually allocated — required for restart after a node death, when the
    replacement partition has different members. [restart_limit] (default
    0) bounds how many times a failed incarnation (nonzero exit on any
    member node) is requeued before the job is declared [Failed].
    [cls] (default [Batch]) marks shed priority under degradation.
    [tenant] scopes the per-tenant [sched.*] SLO series (queue wait,
    turnaround, bounded slowdown, completion counters) to that id.
    [gang] tags a co-scheduling group for gang strategies. [est_cycles]
    is the user's runtime estimate, for reservation-based backfill. *)

val offer_factory :
  t ->
  ?walltime_cycles:int ->
  ?restart_limit:int ->
  ?cls:job_class ->
  ?tenant:int ->
  ?gang:int ->
  ?est_cycles:int ->
  shape:int * int * int ->
  (ranks:int list -> Job.t) ->
  (job_id, [ `Admission_closed ]) result
(** The admission-controlled front door: like {!submit_factory} while
    admission is open, [Error `Admission_closed] (counted in
    [scheduler.jobs_rejected], and per tenant in [sched.jobs_rejected])
    once a recovery policy has closed it. *)

val set_admission : t -> bool -> unit
(** Degradation tier 3: close (or reopen) the front door for new
    {!offer_factory} submits. Direct {!submit_factory} calls bypass it. *)

val admission_open : t -> bool
val rejected_count : t -> int

val set_shape_cap : t -> (int * int * int) option -> unit
(** Degradation tier 2: jobs whose shape exceeds the cap stay queued —
    even when space is free — until the cap is lifted. *)

val shape_cap : t -> (int * int * int) option

val within_cap : t -> int * int * int -> bool
(** Does a box of this shape pass the current shape cap? Always [true]
    without a cap. *)

val shed_backfill : t -> job_id list
(** Degradation tier 1: drop every queued [Backfill_class] job (each is
    declared [Failed] without running, counted in [scheduler.jobs_shed]).
    Returns the shed ids. Running jobs are never shed. *)

val set_restart_policy : t -> (jid:job_id -> attempt:int -> int) option -> unit
(** Let a recovery policy delay restarts: the callback returns the
    backoff (cycles) before a failed incarnation is requeued; [<= 0]
    requeues immediately (the default behavior when unset). The delay
    must be a pure function of its arguments to keep runs replayable. *)

val kick : t -> unit
(** Try to start queued jobs now — for policy engines that just revived
    capacity (spare substitution, pset rebuild, shape-cap lift). *)

val drain : t -> unit
(** Start whatever fits, then run the simulation, starting queued jobs as
    partitions free up, until every submitted job completes.
    @raise Bg_engine.Sim.Stalled if the run ends first, e.g. when down
    nodes leave no partition of a queued job's shape ([waiting] is the
    outstanding jobs). *)

val outstanding : t -> int
(** Jobs submitted but not yet in a terminal state. *)

(** {1 Pluggable strategies}

    A strategy replaces the built-in pick logic: on every {!kick} (and
    after every completion) the dispatch callback runs instead of the
    FIFO/backfill scan, inspects {!pending_info}/{!running_info}, and
    starts specific jobs with {!start_job}/{!start_jobs}. Re-entrant
    kicks from inside dispatch are suppressed. *)

val set_dispatch : t -> (unit -> unit) option -> unit
val pending_info : t -> job_info list
(** Queued jobs, head of the line first. Each job's record is built once
    per incarnation (at submit, and again when a restart requeues it),
    and the list itself is rebuilt only after the queue changed, so
    repeated calls in a dispatch pass cost nothing. *)

val pending_count : t -> int
val running_info : t -> running_info list
(** Currently running jobs, ascending job id; kept up to date at each
    start and finish. A job's [run_info] is the record {!pending_info}
    listed for the incarnation it started. *)

val start_job :
  t -> ?base:int * int * int -> ?shape:int * int * int -> job_id -> (unit, string) result
(** Start one specific queued job now. [base] pins the partition to that
    box (torus-aware placement); [shape] reshapes the request to a
    different box of the {e same volume} (a placer trading dimensions for
    compactness). Fails — leaving the queue untouched — when the job is
    not queued, the shape cap blocks it, or allocation fails. *)

val start_jobs :
  t ->
  (job_id * (int * int * int) option * (int * int * int) option) list ->
  (unit, string) result
(** All-or-none co-scheduling: [(jid, base, shape)] triples are allocated
    first (rolling every allocation back on the first failure, leaving the
    queue untouched) and only then all launched — the gang-scheduling
    primitive. *)

val on_job_start : t -> (job_id -> ranks:int list -> unit) -> unit
(** Subscribe to job launches (fires after every member node launched). *)

val on_job_done : t -> (job_id -> job_state -> unit) -> unit
(** Subscribe to terminal dispositions ([Completed]/[Failed], including
    shed backfill jobs); restarts do not fire this. *)

val member_completed : t -> job_id -> rank:int -> unit
(** The per-member completion event — the entry point node completion
    callbacks drive. Idempotent against control-network replay: a
    duplicated event for a (job, rank) that already reported, or for a
    job no longer running, is dropped and counted in
    [scheduler.duplicate_completions]. *)

val duplicate_completions : t -> int
val tenant_usage : t -> int -> int
(** Cumulative busy node-cycles charged to a tenant by completed (or
    restarted) incarnations — the fair-share strategy's usage input. *)

val scan_visits : t -> int
(** Queue nodes examined by the built-in start scans so far — the
    micro-bench guard that submits and kicks stay out of the quadratic
    regime. *)

val node_failed : t -> rank:int -> unit
(** RAS recovery entry point: mark [rank] down for future allocations and
    kill the running job that spans it (every member node, in the same
    cycle — survivors would otherwise block forever on a dead peer). The
    job is requeued if it has restart budget left. Idempotent: a replayed
    or duplicated death notice for an already-down rank is a no-op, so it
    can never kill a job since reallocated onto different hardware. *)

val mark_down : t -> rank:int -> unit
(** Mark a node down without touching running jobs. *)

val mark_up : t -> rank:int -> unit
(** Return a node to the allocation pool (pset rebuild); no-op when the
    rank is not down. *)

val pset_failed : t -> ranks:int list -> unit
(** An I/O node died for good: emit one RAS event, mark every compute
    node it served down, and kill any job spanning them. Jobs with
    restart budget are requeued onto surviving psets. *)

val job_crashed : t -> rank:int -> unit
(** Gang semantics for an application crash on [rank]: kill the spanning
    job on every member node (it restarts if it has budget), but leave the
    node in the allocation pool — the hardware is fine. *)

val state : t -> job_id -> job_state
val restarts : t -> job_id -> int
(** How many times the job has been relaunched so far. *)

val completed_order : t -> job_id list
(** Ids in completion order (includes [Failed] jobs). *)

val cluster : t -> Cnk.Cluster.t
val partition : t -> Partition.t
(** The live allocator — exposed for the resilience layer and tests. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state (queue, job states, running set,
    completion order, partition) into [b], little-endian, sorted. *)
