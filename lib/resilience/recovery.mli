(** RAS-driven failure detection and recovery — the control plane's
    {e actuator}.

    Every state-changing action the control system can take against a
    fault lives here as an idempotent, counted function: mark a dead node
    down and gang-kill its job, spend a spare, retire or rebuild a pset,
    restart an I/O daemon. {!attach} wires the classic immediate policy
    (act the moment the RAS event arrives — the pre-policy behavior,
    preserved bit-for-bit); {!Policy} drives the same actuator through
    retry budgets, deterministic backoff and escalation ladders.

    Idempotency: a duplicated or replayed RAS stream must not act twice —
    a second death notice for an already-handled rank, or a second fatal
    CIOD event for an already-retired pset, is counted as seen but takes
    no action (and bumps no action counter).

    L1 parity and link events are counted but need no control-system
    action: CNK recovers parity in place (§V.B) and the torus reroutes
    around a broken link on its own. *)

type t

val attach : Bg_control.Scheduler.t -> t
(** [create] + subscribe the classic immediate policy to this scheduler's
    cluster RAS stream. *)

val create : Bg_control.Scheduler.t -> t
(** The bare actuator: counters and actions only, no RAS subscription —
    for a {!Policy} engine that makes its own decisions. *)

val scheduler : t -> Bg_control.Scheduler.t

(** {1 Actions} *)

val node_death : t -> rank:int -> bool
(** Handle a node death: mark down, gang-kill the spanning job. [false]
    (and no action) when this rank's death was already handled. *)

val substitute : t -> dead:int -> int option
(** Spend a spare from the partition pool to cover [dead]; announces the
    substitution on the RAS channel ([HEAL substitute ...]). [None] when
    the pool is empty. *)

val crash_kill : t -> rank:int -> unit
(** Gang-kill the job spanning [rank] after an application crash; the
    node stays in the pool. *)

val fatal_ciod : t -> io_node:int -> bool
(** Retire the pset served by [io_node]: every member marked down, any
    spanning job gang-killed. [false] when already retired. *)

val restart_ciod : t -> io_node:int -> bool
(** Control-system restart of a crashed I/O daemon (emits the same typed
    [FAULT ciod_up] RAS event as an injector auto-restart). [false] when
    the daemon is already alive. *)

val rebuild_pset : t -> io_node:int -> int list
(** Undo a {!fatal_ciod} drain: restart the daemon if needed, return
    every rank the drain took down to the allocation pool (ranks that
    died on their own stay dead), clear the retired flag so a later
    fatal can retire the pset again. Returns the revived ranks and
    announces them ([HEAL pset_rebuilt ...]). *)

(** {1 Bookkeeping for classes that need no action} *)

val note_parity : t -> unit
val note_link : t -> unit
val note_ciod : t -> unit
val note_alert : t -> unit

(** {1 Counters} *)

val deaths_handled : t -> int
val parity_seen : t -> int
val link_events_seen : t -> int

val ciod_events_seen : t -> int
(** CIOD crash and restart events seen (fatal or not). *)

val psets_lost : t -> int
(** Fatal CIOD crashes escalated to {!Bg_control.Scheduler.pset_failed}. *)

val substitutions : t -> int
(** Spares activated to cover dead nodes. *)

val events_seen : t -> int
(** Fault events seen so far (all classes). *)

val alerts_seen : t -> int
(** [Machine.Alert] events received from the machine health service;
    advisory — counted and mirrored into the [resilience.alerts_seen]
    metric, no scheduling action. *)
