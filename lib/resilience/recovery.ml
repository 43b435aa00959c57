module Obs = Bg_obs.Obs

(* The actuator of the self-healing control plane: every state-changing
   action the control system can take against a fault lives here, as an
   idempotent function with its own counter. [attach] wires the classic
   immediate policy (act the moment the event arrives); {!Policy} makes
   the same moves through budgets, backoff and escalation ladders. *)

type t = {
  scheduler : Bg_control.Scheduler.t;
  mutable deaths : int;
  mutable parity : int;
  mutable links : int;
  mutable ciod_events : int;
  mutable psets_lost : int;
  mutable alerts : int;
  mutable substitutions : int;
  (* RAS streams replay and duplicate: acting twice on the same fault
     would kill a job since reallocated onto healthy hardware. *)
  dead_seen : (int, unit) Hashtbl.t;
  psets_seen : (int, unit) Hashtbl.t;
}

let create scheduler =
  {
    scheduler;
    deaths = 0;
    parity = 0;
    links = 0;
    ciod_events = 0;
    psets_lost = 0;
    alerts = 0;
    substitutions = 0;
    dead_seen = Hashtbl.create 16;
    psets_seen = Hashtbl.create 16;
  }

let machine t = Cnk.Cluster.machine (Bg_control.Scheduler.cluster t.scheduler)
let obs t = (machine t).Machine.obs
let scheduler t = t.scheduler

(* -- actuator actions ------------------------------------------------ *)

let node_death t ~rank =
  if Hashtbl.mem t.dead_seen rank then false
  else begin
    Hashtbl.replace t.dead_seen rank ();
    t.deaths <- t.deaths + 1;
    Obs.count (obs t) Metrics.Resilience.deaths_handled;
    Bg_control.Scheduler.node_failed t.scheduler ~rank;
    true
  end

let substitute t ~dead =
  match
    Bg_control.Partition.substitute (Bg_control.Scheduler.partition t.scheduler) ~dead
  with
  | None -> None
  | Some spare ->
    t.substitutions <- t.substitutions + 1;
    Obs.count (obs t) Metrics.Resilience.substitutions;
    Machine.ras_note (machine t) ~rank:spare Bg_obs.Rasdb.Info
      (Printf.sprintf "HEAL substitute dead=%d spare=%d" dead spare);
    Some spare

let crash_kill t ~rank = Bg_control.Scheduler.job_crashed t.scheduler ~rank

let fatal_ciod t ~io_node =
  if Hashtbl.mem t.psets_seen io_node then false
  else begin
    Hashtbl.replace t.psets_seen io_node ();
    t.psets_lost <- t.psets_lost + 1;
    Obs.count (obs t) Metrics.Resilience.psets_lost;
    let cluster = Bg_control.Scheduler.cluster t.scheduler in
    Bg_control.Scheduler.pset_failed t.scheduler
      ~ranks:(Cnk.Cluster.pset_ranks cluster ~io_node);
    true
  end

let restart_ciod t ~io_node =
  let cluster = Bg_control.Scheduler.cluster t.scheduler in
  let ciod = Cnk.Cluster.ciod cluster ~io_node in
  if Bg_cio.Ciod.alive ciod then false
  else begin
    Bg_cio.Ciod.restart ciod;
    (* the injector's event, so rasdb and Recovery consumers see one
       fault regardless of who brought the daemon back *)
    Machine.ras_emit (machine t) ~rank:io_node
      (Machine.Fault (Fault_event.Ciod_restart { io_node }));
    true
  end

let rebuild_pset t ~io_node =
  let cluster = Bg_control.Scheduler.cluster t.scheduler in
  let revived =
    List.filter
      (fun rank ->
        (* only ranks the drain took down come back: a rank that died on
           its own stays dead through the rebuild *)
        (not (Hashtbl.mem t.dead_seen rank))
        && Bg_control.Partition.is_down
             (Bg_control.Scheduler.partition t.scheduler)
             ~rank)
      (Cnk.Cluster.pset_ranks cluster ~io_node)
  in
  List.iter (fun rank -> Bg_control.Scheduler.mark_up t.scheduler ~rank) revived;
  ignore (restart_ciod t ~io_node);
  Hashtbl.remove t.psets_seen io_node;
  if revived <> [] then begin
    Obs.count (obs t) Metrics.Resilience.psets_rebuilt;
    Machine.ras_note (machine t)
      ~rank:(List.hd revived)
      Bg_obs.Rasdb.Info
      (Printf.sprintf "HEAL pset_rebuilt io=%d ranks=%s" io_node
         (String.concat "," (List.map string_of_int revived)))
  end;
  revived

(* -- bookkeeping for the fault classes that need no action ----------- *)

let note_parity t = t.parity <- t.parity + 1
let note_link t = t.links <- t.links + 1
let note_ciod t = t.ciod_events <- t.ciod_events + 1

let note_alert t =
  t.alerts <- t.alerts + 1;
  Obs.count (obs t) Metrics.Resilience.alerts_seen

(* -- the classic immediate policy ------------------------------------ *)

let subscribe t =
  Machine.on_ras (machine t) (fun ~rank -> function
      | Machine.Fault (Node_death { rank }) -> ignore (node_death t ~rank)
      | Fault (L1_parity _) ->
        (* CNK's in-place recovery: nothing for the control system to do *)
        note_parity t
      | Fault (Link_failure _ | Link_repair _) ->
        (* the torus reroutes; note it and move on *)
        note_link t
      | Fault (Ciod_crash { io_node; fatal }) ->
        note_ciod t;
        (* No restart is coming: the pset's compute nodes have lost
           their only path to the filesystem, so the control system
           retires the whole pset and reallocates its jobs elsewhere.
           Transient crash: the injector restarts the daemon and the CNK
           retransmission layer re-drives in-flight requests — no
           control-system action needed. *)
        if fatal then ignore (fatal_ciod t ~io_node)
      | Fault (Ciod_restart _) -> note_ciod t
      | Alert _ ->
        (* advisory: count it so operators and tests can see the control
           system received it *)
        note_alert t
      | Thread_death _ ->
        (* gang-kill the job so no surviving rank blocks on a dead peer *)
        crash_kill t ~rank
      | Note _ -> ())

let attach scheduler =
  let t = create scheduler in
  subscribe t;
  t

let deaths_handled t = t.deaths
let parity_seen t = t.parity
let link_events_seen t = t.links
let ciod_events_seen t = t.ciod_events
let psets_lost t = t.psets_lost
let alerts_seen t = t.alerts
let substitutions t = t.substitutions
let events_seen t = t.deaths + t.parity + t.links + t.ciod_events
