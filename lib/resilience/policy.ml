module Obs = Bg_obs.Obs
module Sim = Bg_engine.Sim
module Fnv = Bg_engine.Fnv
module Scheduler = Bg_control.Scheduler

(* The decision layer of the self-healing control plane. {!Recovery} is
   the actuator; this module decides when each action fires: retries get
   deterministic exponential backoff, crashed I/O daemons get a bounded
   restart budget before the pset is drained and rebuilt, dead nodes pull
   spares from the partition pool, and sustained fault pressure walks the
   machine down graceful-degradation tiers (shed backfill, cap shapes,
   close admission) and back up as the window clears. Every decision is a
   pure function of the fault stream and the simulated clock, so a
   same-seed run replays the identical timeline. *)

type health_state = Healthy | Degraded | Critical

let health_rank = function Healthy -> 0 | Degraded -> 1 | Critical -> 2
let health_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Critical -> "critical"

type config = {
  retry_backoff_base : int;
  retry_backoff_mult : int;
  retry_backoff_cap : int;
  spare_substitution : bool;
  ciod_restart_budget : int;
  ciod_restart_backoff : int;
  ciod_crash_window : int;
  pset_rebuild_after : int;
  degraded_after : int;
  critical_after : int;
  recovery_cooldown : int;
  shape_cap_degraded : (int * int * int) option;
}

let default =
  {
    retry_backoff_base = 20_000;
    retry_backoff_mult = 2;
    retry_backoff_cap = 320_000;
    spare_substitution = true;
    ciod_restart_budget = 2;
    ciod_restart_backoff = 50_000;
    ciod_crash_window = 2_000_000;
    pset_rebuild_after = 1_000_000;
    degraded_after = 3;
    critical_after = 6;
    recovery_cooldown = 1_500_000;
    shape_cap_degraded = Some (1, 1, 1);
  }

type t = {
  recovery : Recovery.t;
  config : config;
  sim : Sim.t;
  mutable state : health_state;
  (* cycle stamps of recent pressure-bearing faults, newest first *)
  mutable window : int list;
  (* io_node -> recent fatal-crash stamps, for the restart budget *)
  fatals : (int, int list) Hashtbl.t;
  (* io_node -> a restart is scheduled; cleared when the daemon comes
     back by any path (Ciod.on_restart) *)
  pending_restart : (int, unit) Hashtbl.t;
  mutable timeline_rev : (int * string) list;
  mutable tl_digest : Fnv.t;
  mutable reeval_armed : bool;
  mutable retries_delayed : int;
  mutable transitions : int;
  mutable ciod_restarts : int;
  mutable drains : int;
  mutable rebuilds : int;
  mutable jobs_shed : int;
}

let scheduler t = Recovery.scheduler t.recovery
let recovery t = t.recovery
let config t = t.config
let health t = t.state
let machine t = Cnk.Cluster.machine (Scheduler.cluster (scheduler t))
let obs t = (machine t).Machine.obs

let record t fmt =
  Printf.ksprintf
    (fun msg ->
      let cyc = Sim.now t.sim in
      t.timeline_rev <- (cyc, msg) :: t.timeline_rev;
      t.tl_digest <- Fnv.add_string (Fnv.add_int t.tl_digest cyc) msg)
    fmt

let timeline t = List.rev t.timeline_rev
let timeline_digest t = t.tl_digest

(* -- fault-pressure window and degradation tiers --------------------- *)

let prune t =
  let cutoff = Sim.now t.sim - t.config.recovery_cooldown in
  t.window <- List.filter (fun c -> c > cutoff) t.window

let pressure t =
  prune t;
  List.length t.window

let target_of_pressure t p =
  if p >= t.config.critical_after then Critical
  else if p >= t.config.degraded_after then Degraded
  else Healthy

let set_state t s =
  let prev = t.state in
  t.state <- s;
  t.transitions <- t.transitions + 1;
  Obs.set (obs t) ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Policy.health_state
    (health_rank s);
  Obs.count (obs t) Metrics.Policy.transitions;
  record t "health %s -> %s" (health_to_string prev) (health_to_string s)

(* Escalation applies every tier crossed on the way up; a Healthy machine
   under a hard burst sheds, caps and closes admission in one step. *)
let escalate t target =
  let sched = scheduler t in
  if health_rank t.state < health_rank Degraded
     && health_rank target >= health_rank Degraded
  then begin
    let shed = Scheduler.shed_backfill sched in
    t.jobs_shed <- t.jobs_shed + List.length shed;
    Scheduler.set_shape_cap sched t.config.shape_cap_degraded;
    record t "degrade shed=%d cap=%s" (List.length shed)
      (match t.config.shape_cap_degraded with
      | None -> "none"
      | Some (x, y, z) -> Printf.sprintf "%dx%dx%d" x y z)
  end;
  if health_rank t.state < health_rank Critical
     && health_rank target >= health_rank Critical
  then begin
    Scheduler.set_admission sched false;
    record t "admission closed"
  end;
  set_state t target

(* De-escalation is one tier per quiet cooldown window — the machine
   earns its way back rather than flapping on a single quiet period. *)
let step_down t =
  let sched = scheduler t in
  match t.state with
  | Healthy -> ()
  | Critical ->
    Scheduler.set_admission sched true;
    record t "admission reopened";
    set_state t Degraded
  | Degraded ->
    Scheduler.set_shape_cap sched None;
    record t "shape cap lifted";
    set_state t Healthy;
    Scheduler.kick sched

let rec arm_reeval t =
  if (not t.reeval_armed) && t.state <> Healthy then begin
    t.reeval_armed <- true;
    ignore
      (Sim.schedule_in t.sim t.config.recovery_cooldown (fun () ->
           t.reeval_armed <- false;
           let p = pressure t in
           if health_rank (target_of_pressure t p) < health_rank t.state then
             step_down t;
           arm_reeval t))
  end

let note_pressure t =
  prune t;
  t.window <- Sim.now t.sim :: t.window;
  Obs.set (obs t) ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Policy.fault_pressure
    (List.length t.window);
  let target = target_of_pressure t (List.length t.window) in
  if health_rank target > health_rank t.state then escalate t target;
  arm_reeval t

(* -- per-fault-class recovery ladders -------------------------------- *)

let backoff_delay cfg ~attempt =
  let rec pow acc n = if n <= 0 then acc else pow (acc * cfg.retry_backoff_mult) (n - 1) in
  min cfg.retry_backoff_cap (pow cfg.retry_backoff_base (attempt - 1))

let on_node_death t ~rank =
  if Recovery.node_death t.recovery ~rank then begin
    record t "node_death rank=%d" rank;
    note_pressure t;
    if t.config.spare_substitution then
      match Recovery.substitute t.recovery ~dead:rank with
      | Some spare ->
        record t "substitute dead=%d spare=%d" rank spare;
        (* fresh capacity: the killed job's requeue may fit right now *)
        Scheduler.kick (scheduler t)
      | None -> record t "spare_pool_empty rank=%d" rank
  end

let schedule_ciod_restart t ~io_node =
  if not (Hashtbl.mem t.pending_restart io_node) then begin
    Hashtbl.replace t.pending_restart io_node ();
    record t "ciod_restart_scheduled io=%d delay=%d" io_node
      t.config.ciod_restart_backoff;
    ignore
      (Sim.schedule_in t.sim t.config.ciod_restart_backoff (fun () ->
           if Hashtbl.mem t.pending_restart io_node then begin
             Hashtbl.remove t.pending_restart io_node;
             if Recovery.restart_ciod t.recovery ~io_node then begin
               t.ciod_restarts <- t.ciod_restarts + 1;
               Obs.count (obs t) Metrics.Policy.ciod_restarts;
               record t "ciod_restarted io=%d" io_node
             end
           end))
  end

let drain_and_rebuild t ~io_node =
  Hashtbl.remove t.pending_restart io_node;
  if Recovery.fatal_ciod t.recovery ~io_node then begin
    t.drains <- t.drains + 1;
    Obs.count (obs t) Metrics.Policy.psets_drained;
    record t "pset_drained io=%d" io_node;
    ignore
      (Sim.schedule_in t.sim t.config.pset_rebuild_after (fun () ->
           let revived = Recovery.rebuild_pset t.recovery ~io_node in
           t.rebuilds <- t.rebuilds + 1;
           Obs.count (obs t) Metrics.Policy.psets_rebuilt;
           Hashtbl.replace t.fatals io_node [];
           record t "pset_rebuilt io=%d revived=%d" io_node
             (List.length revived);
           Scheduler.kick (scheduler t)))
  end

let on_ciod_fatal t ~io_node =
  let now = Sim.now t.sim in
  let cutoff = now - t.config.ciod_crash_window in
  let recent =
    now
    :: List.filter
         (fun c -> c > cutoff)
         (try Hashtbl.find t.fatals io_node with Not_found -> [])
  in
  Hashtbl.replace t.fatals io_node recent;
  record t "ciod_fatal io=%d recent=%d" io_node (List.length recent);
  note_pressure t;
  if List.length recent <= t.config.ciod_restart_budget then
    (* within budget: bring the daemon back; the CNK retransmission
       layer re-drives whatever was in flight *)
    schedule_ciod_restart t ~io_node
  else
    (* budget blown: stop feeding restarts to a dying I/O node — retire
       the pset, reallocate its jobs elsewhere, rebuild later *)
    drain_and_rebuild t ~io_node

let on_alert t alert_rule =
  Recovery.note_alert t.recovery;
  record t "alert rule=%s" alert_rule;
  note_pressure t

(* -- wiring ----------------------------------------------------------- *)

let attach ?(config = default) sched =
  let recovery = Recovery.create sched in
  let sim = Cnk.Cluster.sim (Scheduler.cluster sched) in
  let t =
    {
      recovery;
      config;
      sim;
      state = Healthy;
      window = [];
      fatals = Hashtbl.create 8;
      pending_restart = Hashtbl.create 8;
      timeline_rev = [];
      tl_digest = Fnv.empty;
      reeval_armed = false;
      retries_delayed = 0;
      transitions = 0;
      ciod_restarts = 0;
      drains = 0;
      rebuilds = 0;
      jobs_shed = 0;
    }
  in
  Obs.set (obs t) ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Policy.health_state 0;
  Scheduler.set_restart_policy sched
    (Some
       (fun ~jid ~attempt ->
         let d = backoff_delay config ~attempt in
         t.retries_delayed <- t.retries_delayed + 1;
         Obs.count (obs t) Metrics.Policy.retries_delayed;
         record t "backoff jid=%d attempt=%d delay=%d" jid attempt d;
         d));
  (* a daemon coming back by any path (our restart, injector
     auto-restart, a test calling Ciod.restart) cancels the pending
     escalation for that io node *)
  let cluster = Scheduler.cluster sched in
  for io_node = 0 to Cnk.Cluster.io_node_count cluster - 1 do
    Bg_cio.Ciod.on_restart (Cnk.Cluster.ciod cluster ~io_node) (fun () ->
        Hashtbl.remove t.pending_restart io_node)
  done;
  Machine.on_ras (machine t) (fun ~rank -> function
      | Machine.Fault (Node_death { rank }) -> on_node_death t ~rank
      | Fault (L1_parity _) ->
        (* CNK recovers parity in place: no pressure, no action *)
        Recovery.note_parity t.recovery
      | Fault (Link_failure _) ->
        (* the torus reroutes, but a severed link is machine pressure *)
        Recovery.note_link t.recovery;
        note_pressure t
      | Fault (Link_repair _) -> Recovery.note_link t.recovery
      | Fault (Ciod_crash { io_node; fatal }) ->
        Recovery.note_ciod t.recovery;
        if fatal then on_ciod_fatal t ~io_node
      | Fault (Ciod_restart _) -> Recovery.note_ciod t.recovery
      | Alert a -> on_alert t a.rule
      | Thread_death _ -> Recovery.crash_kill t.recovery ~rank
      | Note _ -> ());
  t

(* -- counters --------------------------------------------------------- *)

let retries_delayed t = t.retries_delayed
let transitions t = t.transitions
let ciod_restarts t = t.ciod_restarts
let psets_drained t = t.drains
let psets_rebuilt t = t.rebuilds
let jobs_shed t = t.jobs_shed
