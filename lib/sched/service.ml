module Sch = Bg_control.Scheduler
module Sim = Bg_engine.Sim
module Torus = Bg_hw.Torus

type t = {
  cluster : Cnk.Cluster.t;
  sched : Sch.t;
  strategy : Strategy.t;
  restart_limit : int;
  comm_bytes : int;
  comm_waves : int;
  bursts : (int * Workload.spec list) list;  (* arrival-sorted groups *)
  specs : (Sch.job_id, Workload.spec) Hashtbl.t;
  mutable bursts_left : int;
  mutable offered : int;
  mutable refused : int;
  mutable started_at : Bg_engine.Cycles.t;
  mutable finished_at : Bg_engine.Cycles.t;
}

let rec placeable_nodes ~dims n =
  if n <= 1 then 1
  else
    match Placer.canonical_shape ~dims ~nodes:n with
    | Some _ -> n
    | None -> placeable_nodes ~dims (n - 1)

(* Arrival bursts: specs sharing a cycle are offered in one event, so a
   gang's members are all queued before the strategy sees any of them. *)
let group_by_arrival specs =
  let groups =
    List.fold_left
      (fun acc (s : Workload.spec) ->
        match acc with
        | (c, g) :: rest when c = s.Workload.arrival -> (c, s :: g) :: rest
        | _ -> (s.Workload.arrival, [ s ]) :: acc)
      [] specs
  in
  List.rev_map (fun (c, g) -> (c, List.rev g)) groups

let create ?(restart_limit = 1) ?(comm_bytes = 4096) ?(comm_waves = 2) ~kind
    cluster specs =
  let sched = Sch.create cluster in
  let spec_tbl = Hashtbl.create 256 in
  let weights = Hashtbl.create 16 in
  List.iter
    (fun (s : Workload.spec) ->
      Hashtbl.replace weights s.Workload.tenant s.Workload.weight)
    specs;
  let config =
    {
      Strategy.comm_of =
        (fun jid ->
          match Hashtbl.find_opt spec_tbl jid with
          | Some s -> s.Workload.comm
          | None -> false);
      weight_of =
        (fun tid ->
          match Hashtbl.find_opt weights tid with Some w -> w | None -> 1);
    }
  in
  let strategy = Strategy.install ~config kind sched in
  let t =
    {
      cluster;
      sched;
      strategy;
      restart_limit;
      comm_bytes;
      comm_waves;
      bursts = group_by_arrival specs;
      specs = spec_tbl;
      bursts_left = 0;
      offered = 0;
      refused = 0;
      started_at = 0;
      finished_at = 0;
    }
  in
  let torus = (Cnk.Cluster.machine cluster).Machine.torus in
  (* A communication-heavy job is not just a label: at launch it puts
     [comm_waves] transfers on every consecutive member-rank pair, so
     later placements score against congestion this stream created. *)
  Sch.on_job_start sched (fun jid ~ranks ->
      match Hashtbl.find_opt spec_tbl jid with
      | Some s when s.Workload.comm -> (
        match ranks with
        | [] | [ _ ] -> ()
        | first :: rest ->
          ignore
            (List.fold_left
               (fun src dst ->
                 for _ = 1 to t.comm_waves do
                   Torus.transfer torus ~src ~dst ~bytes:t.comm_bytes ()
                 done;
                 dst)
               first rest))
      | _ -> ());
  t

let scheduler t = t.sched
let strategy t = t.strategy
let offered t = t.offered
let refused t = t.refused
let spec_of_job t jid = Hashtbl.find_opt t.specs jid

let jobs t =
  Hashtbl.fold (fun jid s acc -> (jid, s) :: acc) t.specs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let makespan t = max (t.finished_at - t.started_at) 0

let tenants_of specs =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s : Workload.spec) ->
      if not (Hashtbl.mem seen s.Workload.tenant) then
        Hashtbl.replace seen s.Workload.tenant
          (s.Workload.tenant_name, s.Workload.weight))
    specs;
  Hashtbl.fold (fun tid (name, w) acc -> (tid, name, w) :: acc) seen []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let offer t (s : Workload.spec) =
  let dims = Torus.dims (Cnk.Cluster.machine t.cluster).Machine.torus in
  let nodes = placeable_nodes ~dims s.Workload.nodes in
  let shape =
    match Placer.canonical_shape ~dims ~nodes with
    | Some shape -> shape
    | None -> (1, 1, 1)
  in
  let cls =
    match s.Workload.cls with
    | Workload.Filler_cls -> Sch.Backfill_class
    | Workload.Batch_cls | Workload.Interactive_cls -> Sch.Batch
  in
  let restart_limit =
    match s.Workload.cls with Workload.Batch_cls -> t.restart_limit | _ -> 0
  in
  let name = Printf.sprintf "%s.%d" s.Workload.tenant_name s.Workload.seq in
  t.offered <- t.offered + 1;
  match
    Sch.offer_factory t.sched ~walltime_cycles:s.Workload.walltime ~restart_limit
      ~cls ~tenant:s.Workload.tenant ?gang:s.Workload.gang
      ~est_cycles:s.Workload.runtime ~shape
      (fun ~ranks:_ ->
        (* small images: load ships over the collective net at ~1 B/cycle,
           and a stream job's walltime must cover load + runtime *)
        Job.create ~name
          (Image.executable ~name ~text_bytes:(16 * 1024) ~data_bytes:(16 * 1024)
             (fun () -> Coro.consume s.Workload.runtime)))
  with
  | Ok jid -> Hashtbl.replace t.specs jid s
  | Error `Admission_closed -> t.refused <- t.refused + 1

let run t =
  let sim = Cnk.Cluster.sim t.cluster in
  t.started_at <- Sim.now sim;
  t.bursts_left <- List.length t.bursts;
  List.iter
    (fun (arrival, group) ->
      let at = t.started_at + 1 + arrival in
      ignore
        (Sim.schedule_at sim at (fun () ->
             List.iter (offer t) group;
             t.bursts_left <- t.bursts_left - 1;
             Sch.kick t.sched)))
    t.bursts;
  (match Sim.run ~stop:(fun () -> t.bursts_left = 0 && Sch.outstanding t.sched = 0) sim with
  | Sim.Stopped -> ()
  | outcome ->
    let waiting = t.bursts_left + Sch.outstanding t.sched in
    raise (Sim.Stalled { outcome; fired = Sim.events_fired sim; waiting }));
  t.finished_at <- Sim.now sim
