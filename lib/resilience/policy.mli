(** The self-healing control plane's decision layer.

    {!Recovery} is the actuator — idempotent actions against faults; this
    engine decides {e when} each action fires, closing the loop from the
    typed RAS stream (faults, alerts, thread deaths) back to the scheduler:

    - {b Retry with backoff}: failed job incarnations are requeued after a
      deterministic exponential delay ([base * mult^(attempt-1)], capped)
      instead of immediately, so a flapping node cannot thrash the queue.
    - {b Spare-node substitution}: a node death pulls a spare from the
      partition pool ({!Bg_control.Partition.set_spare}) so capacity — and
      the dead job's requeue — recovers in the same window.
    - {b CIOD escalation ladder}: each fatal daemon crash within a sliding
      window spends restart budget; within budget the daemon is restarted
      after a backoff (CNK retransmission re-drives in-flight I/O), beyond
      it the pset is drained ({!Recovery.fatal_ciod}) and rebuilt after a
      quarantine ({!Recovery.rebuild_pset}).
    - {b Graceful degradation}: pressure-bearing faults (node deaths, link
      severs, CIOD fatals, HEALTH alerts) inside a sliding cooldown window
      walk the machine Healthy -> Degraded (shed backfill, cap allocatable
      shapes) -> Critical (close admission); each quiet window steps one
      tier back up. The tier is exported as the [policy.health_state]
      gauge (0/1/2).

    Every decision is a pure function of the fault stream and simulated
    clock: same-seed runs replay a byte-identical {!timeline}. *)

type health_state = Healthy | Degraded | Critical

val health_to_string : health_state -> string

type config = {
  retry_backoff_base : int;  (** first-retry delay, cycles *)
  retry_backoff_mult : int;  (** per-attempt multiplier *)
  retry_backoff_cap : int;  (** delay ceiling, cycles *)
  spare_substitution : bool;  (** spend spares on node death *)
  ciod_restart_budget : int;
      (** fatal crashes per window a daemon may spend on restarts before
          the pset is drained *)
  ciod_restart_backoff : int;  (** crash-to-restart delay, cycles *)
  ciod_crash_window : int;  (** sliding window for the budget, cycles *)
  pset_rebuild_after : int;  (** drain-to-rebuild quarantine, cycles *)
  degraded_after : int;  (** window pressure entering Degraded *)
  critical_after : int;  (** window pressure entering Critical *)
  recovery_cooldown : int;
      (** pressure window length; also the quiet period required per
          de-escalation step *)
  shape_cap_degraded : (int * int * int) option;
      (** allocatable-shape cap imposed while Degraded *)
}

val default : config

type t

val attach : ?config:config -> Bg_control.Scheduler.t -> t
(** Subscribe the engine to the scheduler's cluster RAS stream and
    install its restart-backoff policy. At most one policy engine (or
    classic {!Recovery.attach}) should drive a given scheduler. *)

val scheduler : t -> Bg_control.Scheduler.t
val recovery : t -> Recovery.t
(** The actuator underneath — its counters cover actions taken. *)

val config : t -> config
val health : t -> health_state
val pressure : t -> int
(** Pressure-bearing faults inside the current cooldown window. *)

(** {1 Decision timeline}

    Every decision the engine takes, as [(cycle, line)] in decision
    order — the auditable record a chaos run digests to prove same-seed
    determinism. *)

val timeline : t -> (int * string) list
val timeline_digest : t -> Bg_engine.Fnv.t

(** {1 Counters} *)

val retries_delayed : t -> int
(** Job requeues routed through the backoff schedule. *)

val transitions : t -> int
(** Health-state changes (both directions). *)

val ciod_restarts : t -> int
(** Daemon restarts this engine initiated (within budget). *)

val psets_drained : t -> int
(** Escalations past the restart budget. *)

val psets_rebuilt : t -> int
val jobs_shed : t -> int
(** Backfill jobs shed entering Degraded. *)
