(* Tests for the scheduler-as-a-service layer: workload generation
   (seeded, tenant-isolated substreams), the indexed job queue, the
   torus-aware placer, the pluggable strategy invariants (EASY head
   reservation, gang all-or-none, fair-share weighting), completion-
   event idempotence under a full queue, and the linear-scan guard. *)

open Bg_kabi
module Ctl = Bg_control
module Sch = Bg_control.Scheduler
module Jobq = Bg_control.Jobq
module Sim = Bg_engine.Sim
module Workload = Bg_sched.Workload
module Placer = Bg_sched.Placer
module Strategy = Bg_sched.Strategy
module Service = Bg_sched.Service
module Slo = Bg_sched.Slo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_cluster ?(seed = 11L) dims =
  let cluster = Cnk.Cluster.create ~dims ~seed ~nodes_per_io_node:4 () in
  Cnk.Cluster.boot_all cluster;
  cluster

(* Small images keep load time (~1 cycle/byte on the collective net)
   small next to the runtimes these tests reason about. *)
let factory ~name ~runtime ~ranks:_ =
  Job.create ~name
    (Image.executable ~name ~text_bytes:(8 * 1024) ~data_bytes:(8 * 1024) (fun () ->
         Coro.consume runtime))

(* ------------------------------------------------------------------ *)
(* Workload generation *)

let test_workload_deterministic () =
  let tenants = Workload.mixed_tenants ~tenants:8 ~jobs_per_tenant:5 in
  let a = Workload.generate ~seed:42L tenants in
  let b = Workload.generate ~seed:42L tenants in
  check_int "count" (8 * 5) (List.length a);
  check_bool "same seed, same stream" true (a = b);
  let c = Workload.generate ~seed:43L tenants in
  check_bool "different seed, different stream" true (a <> c)

(* The satellite regression: a tenant's stream is a pure function of
   (seed, tenant record) — adding or removing *another* tenant must not
   perturb it, including its gang ids. *)
let test_workload_tenant_isolation () =
  let tenants = Workload.mixed_tenants ~tenants:9 ~jobs_per_tenant:6 in
  let removed = List.nth tenants 4 in
  let fewer =
    List.filter (fun t -> t.Workload.name <> removed.Workload.name) tenants
  in
  let project specs =
    List.filter_map
      (fun (s : Workload.spec) ->
        if s.Workload.tenant_name = removed.Workload.name then None
        else
          Some
            ( s.Workload.tenant_name,
              s.Workload.seq,
              s.Workload.arrival,
              s.Workload.nodes,
              s.Workload.runtime,
              s.Workload.walltime,
              s.Workload.comm,
              s.Workload.gang ))
      specs
  in
  let all = project (Workload.generate ~seed:7L tenants) in
  let without = project (Workload.generate ~seed:7L fewer) in
  check_bool "survivors' streams unperturbed" true (all = without)

let test_workload_gang_bursts () =
  let t =
    {
      Workload.name = "ia";
      weight = 2;
      jobs = 9;
      mean_interarrival = 100_000.;
      nodes_lo = 1;
      nodes_hi = 1;
      runtime_lo = 10_000;
      runtime_hi = 20_000;
      comm_fraction = 0.;
      runaway_fraction = 0.;
      cls = Workload.Interactive_cls;
      gang_size = 3;
    }
  in
  let specs = Workload.generate ~seed:5L [ t ] in
  check_int "9 jobs" 9 (List.length specs);
  let by_gang = Hashtbl.create 4 in
  List.iter
    (fun (s : Workload.spec) ->
      match s.Workload.gang with
      | None -> Alcotest.fail "gang tenant produced an untagged job"
      | Some g ->
        Hashtbl.replace by_gang g
          (s.Workload.arrival
          :: (try Hashtbl.find by_gang g with Not_found -> [])))
    specs;
  check_int "three bursts" 3 (Hashtbl.length by_gang);
  Hashtbl.iter
    (fun _ arrivals ->
      check_int "burst of three" 3 (List.length arrivals);
      match arrivals with
      | a :: rest -> List.iter (fun b -> check_int "burst shares arrival" a b) rest
      | [] -> ())
    by_gang

(* ------------------------------------------------------------------ *)
(* Indexed job queue *)

let test_jobq_order_and_removal () =
  let q = Jobq.create () in
  List.iter (fun k -> Jobq.append q ~key:k (k * 10)) [ 1; 2; 3; 4; 5 ];
  check_int "length" 5 (Jobq.length q);
  check_bool "mem" true (Jobq.mem q 3);
  check_bool "remove returns the value" true (Jobq.remove q 3 = Some 30);
  check_bool "removed" false (Jobq.mem q 3);
  check_bool "order preserved" true (Jobq.keys q = [ 1; 2; 4; 5 ]);
  Jobq.push_front q ~key:9 90;
  check_bool "push_front heads the line" true (Jobq.keys q = [ 9; 1; 2; 4; 5 ]);
  (match Jobq.peek q with
  | Some (k, v) ->
    check_int "peek key" 9 k;
    check_int "peek value" 90 v
  | None -> Alcotest.fail "peek on non-empty queue");
  check_bool "duplicate key rejected" true
    (try
       Jobq.append q ~key:9 99;
       false
     with Invalid_argument _ -> true)

let test_jobq_iter_safe_against_removal () =
  let q = Jobq.create () in
  List.iter (fun k -> Jobq.append q ~key:k k) [ 1; 2; 3; 4; 5; 6 ];
  (* remove the current node mid-iteration, like shed_backfill does *)
  Jobq.iter q (fun k _ -> if k mod 2 = 0 then ignore (Jobq.remove q k));
  check_bool "odd keys survive" true (Jobq.keys q = [ 1; 3; 5 ])

(* ------------------------------------------------------------------ *)
(* Placer *)

let test_placer_compactness () =
  let dims = (4, 4, 4) in
  (match Placer.shapes_for ~dims ~nodes:8 with
  | (2, 2, 2) :: _ -> ()
  | s :: _ ->
    let a, b, c = s in
    Alcotest.fail (Printf.sprintf "8 nodes not cubic first: (%d,%d,%d)" a b c)
  | [] -> Alcotest.fail "no shapes for 8 nodes");
  check_bool "canonical 16 = (2,2,4)" true
    (Placer.canonical_shape ~dims ~nodes:16 = Some (2, 2, 4));
  check_bool "7 nodes cannot fit 4x4x4" true
    (Placer.shapes_for ~dims ~nodes:7 = []);
  check_int "placeable rounds 7 down to 6" 6 (Service.placeable_nodes ~dims 7)

let test_placer_scores_congestion () =
  let cluster = mk_cluster (4, 1, 1) in
  let machine = Cnk.Cluster.machine cluster in
  let torus = machine.Machine.torus in
  let sim = Cnk.Cluster.sim cluster in
  (* soak the links out of ranks 0 and 1 with traffic, leave 2-3 quiet *)
  for _ = 1 to 8 do
    Bg_hw.Torus.transfer torus ~src:0 ~dst:1 ~bytes:65536 ();
    Bg_hw.Torus.transfer torus ~src:1 ~dst:2 ~bytes:65536 ()
  done;
  ignore (Sim.run sim);
  let p = Ctl.Partition.create ~dims:(4, 1, 1) in
  let busy = Placer.congestion_score torus p ~base:(0, 0, 0) ~shape:(2, 1, 1) in
  let quiet = Placer.congestion_score torus p ~base:(2, 0, 0) ~shape:(2, 1, 1) in
  check_bool "traffic raises the score" true (busy > quiet);
  match
    Placer.place ~fits:(fun _ -> true) (Placer.table ~dims:(4, 1, 1)) torus p ~nodes:2
      ~comm:true
  with
  | Ok { Placer.base = Some (2, 0, 0); _ } -> ()
  | Ok { Placer.base; _ } ->
    Alcotest.fail
      (match base with
      | Some (x, y, z) -> Printf.sprintf "comm job placed at (%d,%d,%d)" x y z
      | None -> "comm job got no scored base")
  | Error e -> Alcotest.fail ("nothing placed: " ^ e)

(* A reference copy of placement as it stood before the cap check moved
   ahead of scoring: every free base listed from the rank masks, the
   congestion score summed over each box's ranks, and the shape cap
   applied afterwards (as the scheduler's start did). *)
type place_case = {
  dims : int * int * int;
  states : int array;  (* per rank: 0 free, 1 occupied, 2 down, 3 spare *)
  cap : (int * int * int) option;
  nodes : int;
  comm : bool;
  traffic : (int * int * int) list;  (* src, dst, bytes *)
  events : int;  (* how far the traffic runs before placing *)
}

let ref_rank (x, y, _) (cx, cy, cz) = cx + (cy * x) + (cz * x * y)

let ref_box_ranks dims (bx, by, bz) (sx, sy, sz) =
  List.sort compare
    (List.concat
       (List.init sz (fun dz ->
            List.concat
              (List.init sy (fun dy ->
                   List.init sx (fun dx -> ref_rank dims (bx + dx, by + dy, bz + dz)))))))

let ref_free_bases dims states ((sx, sy, sz) as shape) =
  let x, y, z = dims in
  let bases = ref [] in
  for bz = z - sz downto 0 do
    for by = y - sy downto 0 do
      for bx = x - sx downto 0 do
        if List.for_all (fun r -> states.(r) = 0) (ref_box_ranks dims (bx, by, bz) shape)
        then bases := (bx, by, bz) :: !bases
      done
    done
  done;
  !bases

let ref_score torus ranks =
  List.fold_left
    (fun acc rank ->
      let per_rank = ref 0 in
      for dir = 0 to 5 do
        per_rank :=
          !per_rank
          + Bg_hw.Torus.link_busy_cycles torus ~rank ~dir
          + (10_000 * Bg_hw.Torus.link_in_flight torus ~rank ~dir)
      done;
      acc + !per_rank)
    0 ranks

let ref_place torus c =
  List.find_map
    (fun shape ->
      match ref_free_bases c.dims c.states shape with
      | [] -> None
      | _ :: _ when not c.comm -> Some (shape, None)
      | bases ->
        let best =
          List.fold_left
            (fun acc base ->
              let score = ref_score torus (ref_box_ranks c.dims base shape) in
              match acc with
              | Some (_, s) when s <= score -> acc
              | _ -> Some (base, score))
            None bases
        in
        Some (shape, Option.map fst best))
    (Placer.shapes_for ~dims:c.dims ~nodes:c.nodes)

let within cap (sx, sy, sz) =
  match cap with None -> true | Some (cx, cy, cz) -> sx <= cx && sy <= cy && sz <= cz

let place_case_gen =
  let open QCheck.Gen in
  triple (1 -- 4) (1 -- 4) (1 -- 4) >>= fun ((x, y, z) as dims) ->
  let n = x * y * z in
  array_repeat n (frequency [ (6, return 0); (2, return 1); (1, return 2); (1, return 3) ])
  >>= fun states ->
  opt (triple (1 -- 4) (1 -- 4) (1 -- 4)) >>= fun cap ->
  pair (1 -- (n + 1)) bool >>= fun (nodes, comm) ->
  list_size (0 -- 8) (triple (0 -- (n - 1)) (0 -- (n - 1)) (1 -- 65536)) >>= fun traffic ->
  map (fun events -> { dims; states; cap; nodes; comm; traffic; events }) (0 -- 200)

let print_place_case c =
  let x, y, z = c.dims in
  Printf.sprintf "dims=%dx%dx%d states=%s cap=%s nodes=%d comm=%b traffic=%d events=%d" x y z
    (String.concat "" (Array.to_list (Array.map string_of_int c.states)))
    (match c.cap with Some (a, b, d) -> Printf.sprintf "%dx%dx%d" a b d | None -> "none")
    c.nodes c.comm (List.length c.traffic) c.events

(* The partition and torus a case describes. *)
let build_place_case c =
  let x, y, _ = c.dims in
  let p = Ctl.Partition.create ~dims:c.dims in
  Array.iteri
    (fun r st ->
      match st with
      | 1 ->
        ignore
          (Ctl.Partition.allocate p
             ~base:(r mod x, r / x mod y, r / (x * y))
             ~shape:(1, 1, 1))
      | 2 -> Ctl.Partition.set_down p ~rank:r true
      | 3 -> Ctl.Partition.set_spare p ~rank:r true
      | _ -> ())
    c.states;
  let sim = Sim.create () in
  let torus = Bg_hw.Torus.create sim ~dims:c.dims () in
  List.iter (fun (src, dst, bytes) -> Bg_hw.Torus.transfer torus ~src ~dst ~bytes ()) c.traffic;
  ignore (Sim.run ~max_events:c.events sim);
  (p, torus)

let prop_placer_matches_reference =
  QCheck.Test.make ~name:"placer: cap-first placement = reference place, then cap" ~count:500
    (QCheck.make ~print:print_place_case place_case_gen)
    (fun c ->
      let p, torus = build_place_case c in
      let got =
        Placer.place ~fits:(within c.cap) (Placer.table ~dims:c.dims) torus p ~nodes:c.nodes
          ~comm:c.comm
      in
      match (ref_place torus c, got) with
      | None, Error "no free box" -> true
      | Some (shape, _), Error "blocked by shape cap" -> not (within c.cap shape)
      | Some (shape, base), Ok pl when within c.cap shape ->
        (* a compute-only job's first fit is the lowest free base *)
        let expected_base =
          match base with
          | Some b -> Some b
          | None -> List.nth_opt (ref_free_bases c.dims c.states shape) 0
        in
        pl = { Placer.shape; base }
        &&
        (match Ctl.Partition.allocate ?base p ~shape with
        | Ok a ->
          Some a.Ctl.Partition.base = expected_base
          && a.Ctl.Partition.ranks = ref_box_ranks c.dims a.Ctl.Partition.base shape
        | Error _ -> false)
      | _ -> false)

(* The invariant behind the strategy's per-pass failure set. Between two
   starts the partition, the torus and the cap stand still, and whether
   a job places depends on its node count alone: not on whether it is
   communication-heavy, nor on what was placed (and not started)
   before. Filling nodes does not preserve failure, though: a capped
   shape can lose its free box and let a smaller-extent shape through,
   so the set must be cleared on every start. *)
let prop_failure_depends_on_size_alone =
  QCheck.Test.make ~name:"placer: between starts, success depends on the size alone"
    ~count:300
    (QCheck.make ~print:print_place_case place_case_gen)
    (fun c ->
      let p, torus = build_place_case c in
      let table = Placer.table ~dims:c.dims in
      let place comm = Placer.place ~fits:(within c.cap) table torus p ~nodes:c.nodes ~comm in
      let outcome = function Ok pl -> Ok pl.Placer.shape | Error e -> Error e in
      let first = outcome (place c.comm) in
      first = outcome (place (not c.comm)) && first = outcome (place c.comm))

(* A reference copy of the placer before it read shapes from a table and
   rejected on the free-node count: shapes enumerated and sorted with
   polymorphic compare on every call, the first shape with a free base,
   the shape cap, then the least congested free base for comm jobs. *)
let today_shapes_for ~dims ~nodes =
  let dx, dy, dz = dims in
  let surface (a, b, c) = 2 * ((a * b) + (b * c) + (a * c)) in
  let shapes = ref [] in
  for a = 1 to min nodes dx do
    if nodes mod a = 0 then begin
      let rest = nodes / a in
      for b = 1 to min rest dy do
        if rest mod b = 0 then begin
          let c = rest / b in
          if c <= dz then shapes := (a, b, c) :: !shapes
        end
      done
    end
  done;
  List.sort (fun s1 s2 -> compare (surface s1, s1) (surface s2, s2)) !shapes

let today_least_congested torus p ~shape =
  List.fold_left
    (fun acc base ->
      let score = Placer.congestion_score torus p ~base ~shape in
      match acc with
      | Some (_, best) when best <= score -> acc
      | _ -> Some (base, score))
    None
    (Ctl.Partition.free_bases p ~shape)
  |> Option.map fst

let today_place ~fits torus p ~nodes ~comm =
  match
    List.find_opt
      (fun shape -> Option.is_some (Ctl.Partition.first_free_base p ~shape))
      (today_shapes_for ~dims:(Bg_hw.Torus.dims torus) ~nodes)
  with
  | None -> Error "no free box"
  | Some shape when not (fits shape) -> Error "blocked by shape cap"
  | Some shape ->
    let base = if comm then today_least_congested torus p ~shape else None in
    Ok { Placer.shape; base }

(* Half the cases leave exactly one free box, every other rank occupied,
   down or spare, and ask for exactly its volume: the free-node count
   then equals the request, where an off-by-one reject would refuse a
   job that fits. *)
let equiv_case_gen =
  let open QCheck.Gen in
  oneofl [ (4, 4, 4); (4, 2, 3) ] >>= fun ((x, y, z) as dims) ->
  let n = x * y * z in
  let taken = frequency [ (2, return 1); (1, return 2); (1, return 3) ] in
  bool >>= fun exact ->
  (if exact then
     triple (1 -- x) (1 -- y) (1 -- z) >>= fun (sx, sy, sz) ->
     triple (0 -- (x - sx)) (0 -- (y - sy)) (0 -- (z - sz)) >>= fun (bx, by, bz) ->
     array_repeat n taken >|= fun outside ->
     let inside r =
       let cx = r mod x and cy = r / x mod y and cz = r / (x * y) in
       cx >= bx && cx < bx + sx && cy >= by && cy < by + sy && cz >= bz && cz < bz + sz
     in
     (Array.mapi (fun r st -> if inside r then 0 else st) outside, sx * sy * sz)
   else
     array_repeat n (frequency [ (6, return 0); (1, taken) ]) >>= fun states ->
     (0 -- (n + 1)) >|= fun nodes -> (states, nodes))
  >>= fun (states, nodes) ->
  opt (triple (1 -- 4) (1 -- 4) (1 -- 4)) >>= fun cap ->
  bool >>= fun comm ->
  list_size (0 -- 8) (triple (0 -- (n - 1)) (0 -- (n - 1)) (1 -- 65536)) >>= fun traffic ->
  map (fun events -> { dims; states; cap; nodes; comm; traffic; events }) (0 -- 200)

let prop_placer_equals_today =
  QCheck.Test.make ~name:"placer: shape table + free-node reject = the per-call placer"
    ~count:500
    (QCheck.make ~print:print_place_case equiv_case_gen)
    (fun c ->
      let p, torus = build_place_case c in
      let free = Array.fold_left (fun n st -> if st = 0 then n + 1 else n) 0 c.states in
      Ctl.Partition.free_nodes p = free
      && Placer.place ~fits:(within c.cap) (Placer.table ~dims:c.dims) torus p ~nodes:c.nodes
           ~comm:c.comm
         = today_place ~fits:(within c.cap) torus p ~nodes:c.nodes ~comm:c.comm)

(* ------------------------------------------------------------------ *)
(* Strategy invariants *)

let test_easy_head_reservation () =
  let cluster = mk_cluster ~seed:21L (2, 2, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let strat = Strategy.install Strategy.Easy sched in
  let starts = Hashtbl.create 4 in
  Sch.on_job_start sched (fun jid ~ranks:_ ->
      Hashtbl.replace starts jid (Sim.now sim));
  let j0 =
    Sch.submit_factory sched ~est_cycles:400_000 ~shape:(2, 1, 1)
      (factory ~name:"wide0" ~runtime:300_000)
  in
  Sch.kick sched;
  let j1 =
    Sch.submit_factory sched ~est_cycles:200_000 ~shape:(2, 2, 1)
      (factory ~name:"head" ~runtime:100_000)
  in
  let j2 =
    Sch.submit_factory sched ~est_cycles:100_000 ~shape:(1, 1, 1)
      (factory ~name:"filler" ~runtime:50_000)
  in
  Sch.drain sched;
  check_bool "filler was backfilled" true (Strategy.backfilled strat >= 1);
  let start jid =
    match Hashtbl.find_opt starts jid with
    | Some c -> c
    | None -> Alcotest.fail (Printf.sprintf "job %d never started" jid)
  in
  (match Strategy.reservation strat j1 with
  | None -> Alcotest.fail "blocked head got no reservation"
  | Some shadow ->
    check_bool
      (Printf.sprintf "head started at %d, reserved for %d" (start j1) shadow)
      true
      (start j1 <= shadow));
  check_bool "backfill actually jumped the line" true (start j2 < start j1);
  check_bool "everything completed" true
    (List.for_all
       (fun j -> match Sch.state sched j with Sch.Completed _ -> true | _ -> false)
       [ j0; j1; j2 ])

let test_gang_all_or_none () =
  let cluster = mk_cluster ~seed:22L (2, 2, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let strat = Strategy.install Strategy.Gang sched in
  let starts = Hashtbl.create 4 in
  Sch.on_job_start sched (fun jid ~ranks:_ ->
      Hashtbl.replace starts jid (Sim.now sim));
  let blocker =
    Sch.submit_factory sched ~est_cycles:400_000 ~shape:(2, 1, 1)
      (factory ~name:"blocker" ~runtime:300_000)
  in
  Sch.kick sched;
  let members =
    List.init 3 (fun i ->
        Sch.submit_factory sched ~gang:7 ~est_cycles:100_000 ~shape:(1, 1, 1)
          (factory ~name:(Printf.sprintf "gang%d" i) ~runtime:50_000))
  in
  (* mid-run probe: two nodes are free, but a 3-wide gang must not run
     partially — all or none *)
  ignore
    (Sim.schedule_at sim 150_000 (fun () ->
         List.iter
           (fun j ->
             match Sch.state sched j with
             | Sch.Running _ -> Alcotest.fail "gang member ran without its gang"
             | _ -> ())
           members));
  Sch.drain sched;
  check_int "one gang co-scheduled" 1 (Strategy.gangs_started strat);
  let cycles =
    List.map
      (fun j ->
        match Hashtbl.find_opt starts j with
        | Some c -> c
        | None -> Alcotest.fail "gang member never started")
      members
  in
  (match cycles with
  | c :: rest -> List.iter (fun c' -> check_int "gang starts together" c c') rest
  | [] -> ());
  check_bool "blocker finished first" true
    (match Sch.state sched blocker with Sch.Completed _ -> true | _ -> false)

(* A start must end the strategy's failure-set pass. Ranks 0-2 are down
   and the cap is 2x1x1. The 2-node job's most compact free box is the
   1x2 column at x=3, over the cap, so it fails. The 1-node job then
   takes rank 3, which closes that column and leaves the 2x1 boxes of
   row y=1, inside the cap, as the most compact free shape. So both
   start in the same kick. *)
let test_start_ends_failure_pass () =
  let cluster = mk_cluster ~seed:24L (4, 2, 1) in
  let sched = Sch.create cluster in
  ignore (Strategy.install Strategy.Fair sched);
  List.iter (fun rank -> Sch.mark_down sched ~rank) [ 0; 1; 2 ];
  Sch.set_shape_cap sched (Some (2, 1, 1));
  let submit name shape =
    Sch.submit_factory sched ~est_cycles:100_000 ~shape (factory ~name ~runtime:50_000)
  in
  let pair = submit "pair" (2, 1, 1) in
  let single = submit "single" (1, 1, 1) in
  Sch.kick sched;
  List.iter
    (fun (name, j) ->
      check_bool (name ^ " started in the first kick") true
        (match Sch.state sched j with Sch.Running _ -> true | _ -> false))
    [ ("single", single); ("pair", pair) ]

let test_fair_share_weights () =
  let cluster = mk_cluster ~seed:23L (2, 2, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let config =
    {
      Strategy.comm_of = (fun _ -> false);
      weight_of = (fun tid -> if tid = 0 then 3 else 1);
    }
  in
  ignore (Strategy.install ~config Strategy.Fair sched);
  let done_at = Hashtbl.create 32 in
  Sch.on_job_done sched (fun jid _ -> Hashtbl.replace done_at jid (Sim.now sim));
  let tenant_of = Hashtbl.create 32 in
  (* equal backlogs, interleaved submission: only the weights differ *)
  let submit tenant i =
    let jid =
      Sch.submit_factory sched ~tenant ~est_cycles:150_000 ~shape:(1, 1, 1)
        (factory ~name:(Printf.sprintf "t%d.%d" tenant i) ~runtime:100_000)
    in
    Hashtbl.replace tenant_of jid tenant
  in
  for i = 0 to 15 do
    submit 0 i;
    submit 1 i
  done;
  (* mid-run probe: service delivered so far (completed ledger + live
     progress of running jobs) should lean toward the weight-3 tenant *)
  let probe = ref (0, 0) in
  ignore
    (Sim.schedule_at sim 700_000 (fun () ->
         let live = Hashtbl.create 4 in
         List.iter
           (fun (r : Sch.running_info) ->
             match r.Sch.run_info.Sch.info_tenant with
             | Some tid ->
               let sx, sy, sz = r.Sch.run_info.Sch.info_shape in
               let prev = try Hashtbl.find live tid with Not_found -> 0 in
               Hashtbl.replace live tid
                 (prev + ((Sim.now sim - r.Sch.run_started) * (sx * sy * sz)))
             | None -> ())
           (Sch.running_info sched);
         let total tid =
           Sch.tenant_usage sched tid
           + (try Hashtbl.find live tid with Not_found -> 0)
         in
         probe := (total 0, total 1)));
  Sch.drain sched;
  let heavy, light = !probe in
  check_bool "probe saw service" true (heavy > 0 && light > 0);
  let ratio = float_of_int heavy /. float_of_int light in
  check_bool
    (Printf.sprintf "weight-3 tenant got %.2fx the service (want 2.0-4.5)" ratio)
    true
    (ratio >= 2.0 && ratio <= 4.5);
  (* and the heavier tenant's jobs finish earlier on average *)
  let mean tid =
    let sum, n =
      Hashtbl.fold
        (fun jid t (sum, n) ->
          if Hashtbl.find tenant_of jid = tid then (sum + t, n + 1) else (sum, n))
        done_at (0, 0)
    in
    float_of_int sum /. float_of_int (max n 1)
  in
  check_bool "weighted tenant finishes earlier" true (mean 0 < mean 1)

(* ------------------------------------------------------------------ *)
(* Completion-event idempotence under a full queue *)

let test_duplicate_completions_idempotent () =
  let cluster = mk_cluster ~seed:24L (2, 1, 1) in
  let sched = Sch.create cluster in
  let j0 =
    Sch.submit_factory sched ~shape:(2, 1, 1) (factory ~name:"live" ~runtime:50_000)
  in
  Sch.kick sched;
  (* wedge the queue shut so releases cannot relaunch onto the nodes *)
  Sch.set_shape_cap sched (Some (1, 1, 1));
  let queued =
    List.init 3 (fun i ->
        Sch.submit_factory sched ~shape:(2, 1, 1)
          (factory ~name:(Printf.sprintf "q%d" i) ~runtime:10_000))
  in
  check_int "queue is full" 3 (Sch.pending_count sched);
  (* first report from rank 0: job keeps running on rank 1 *)
  Sch.member_completed sched j0 ~rank:0;
  check_bool "half-reported job still running" true
    (match Sch.state sched j0 with Sch.Running _ -> true | _ -> false);
  (* control-network replay of the same event: dropped, counted *)
  Sch.member_completed sched j0 ~rank:0;
  check_int "replay counted" 1 (Sch.duplicate_completions sched);
  check_bool "replay did not complete the job" true
    (match Sch.state sched j0 with Sch.Running _ -> true | _ -> false);
  Sch.member_completed sched j0 ~rank:1;
  check_bool "all ranks reported: completed" true
    (match Sch.state sched j0 with Sch.Completed _ -> true | _ -> false);
  check_int "partition released once" 2
    (Ctl.Partition.free_nodes (Sch.partition sched));
  (* replay after the job is gone: dropped too *)
  Sch.member_completed sched j0 ~rank:1;
  check_int "late replay counted" 2 (Sch.duplicate_completions sched);
  check_int "queue untouched" 3 (Sch.pending_count sched);
  List.iter
    (fun j ->
      check_bool "queued job still queued" true
        (match Sch.state sched j with Sch.Queued -> true | _ -> false))
    queued

(* ------------------------------------------------------------------ *)
(* Scan-cost guard *)

(* The indexed queue keeps the kick path linear: draining [n] jobs
   through a 1-node machine must visit O(n) queue nodes in total, not
   O(n^2) as a scan-the-whole-queue-per-kick implementation would. *)
let test_scan_visits_stay_linear () =
  let cluster = mk_cluster ~seed:25L (1, 1, 1) in
  let sched = Sch.create cluster in
  let n = 300 in
  for i = 0 to n - 1 do
    ignore
      (Sch.submit_factory sched ~shape:(1, 1, 1)
         (factory ~name:(Printf.sprintf "s%d" i) ~runtime:2_000))
  done;
  Sch.drain sched;
  check_int "all drained" 0 (Sch.outstanding sched);
  let visits = Sch.scan_visits sched in
  check_bool
    (Printf.sprintf "scan visits %d for %d jobs (quadratic would be ~%d)" visits n
       (n * n / 2))
    true
    (visits <= 4 * n)

(* ------------------------------------------------------------------ *)
(* Service end to end *)

let test_service_deterministic_slo () =
  let run () =
    let cluster = mk_cluster ~seed:26L (2, 2, 1) in
    let obs = Machine.obs (Cnk.Cluster.machine cluster) in
    Bg_obs.Obs.set_enabled obs true;
    let specs =
      Workload.generate ~seed:26L
        (Workload.mixed_tenants ~tenants:4 ~jobs_per_tenant:3)
    in
    let svc = Service.create ~kind:Strategy.Fcfs cluster specs in
    Service.run svc;
    let slo =
      Slo.collect obs
        ~tenants:(Service.tenants_of specs)
        ~policy:"fcfs" ~seed:26 ~total_nodes:4 ~makespan:(Service.makespan svc) ()
    in
    (slo, Service.offered svc)
  in
  let slo_a, offered_a = run () in
  let slo_b, _ = run () in
  check_int "all arrivals offered" 12 offered_a;
  check_int "every job billed" 12
    (slo_a.Slo.completed_total + slo_a.Slo.failed_total);
  check_bool "same seed, same bill" true
    (Bg_engine.Fnv.equal (Slo.digest slo_a) (Slo.digest slo_b))

(* A job's view is built once per incarnation. A failed job with
   restart budget comes back at the head of the queue with a new view:
   the requeue cycle as its submit cycle and one more restart. Once
   restarted, running_info lists that same view. *)
let test_requeue_rebuilds_job_view () =
  let cluster = mk_cluster (2, 1, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let passes = ref [] in
  let rec dispatch () =
    let pending = Sch.pending_info sched in
    passes := (Sim.now sim, pending, Sch.running_info sched) :: !passes;
    match pending with
    | head :: _ when Result.is_ok (Sch.start_job sched head.Sch.info_jid) -> dispatch ()
    | _ -> ()
  in
  Sch.set_dispatch sched (Some dispatch);
  let jid =
    Sch.submit_factory sched ~restart_limit:1 ~est_cycles:5_000_000 ~shape:(1, 1, 1)
      (factory ~name:"crashy" ~runtime:2_000_000)
  in
  let crash_at = 500_000 in
  ignore (Sim.schedule_at sim crash_at (fun () -> Sch.job_crashed sched ~rank:0));
  Sch.drain sched;
  check_int "restarted once" 1 (Sch.restarts sched jid);
  (* passes in order: the first start, the pass after it, the requeue,
     and the pass after the restart *)
  match List.rev !passes with
  | (_, [ first ], []) :: (_, [], [ _ ]) :: (requeued_at, [ again ], []) :: (_, [], [ run ]) :: _ ->
    check_int "first incarnation" 0 first.Sch.info_restarts;
    check_int "same job" jid again.Sch.info_jid;
    check_bool "requeued after the crash" true (requeued_at >= crash_at);
    check_int "new submit cycle" requeued_at again.Sch.info_submitted;
    check_int "new restart count" 1 again.Sch.info_restarts;
    check_bool "fixed fields carried over" true
      (again.Sch.info_shape = first.Sch.info_shape && again.Sch.info_est = first.Sch.info_est);
    check_bool "running lists the requeued view itself" true (run.Sch.run_info == again);
    check_int "started at the requeue" requeued_at run.Sch.run_started
  | passes -> Alcotest.failf "unexpected dispatch passes: %d" (List.length passes)

let suite =
  [
    ("workload: same seed, same stream", `Quick, test_workload_deterministic);
    ("workload: tenant substreams isolated", `Quick, test_workload_tenant_isolation);
    ("workload: gang bursts share arrival", `Quick, test_workload_gang_bursts);
    ("jobq: order and O(1) removal", `Quick, test_jobq_order_and_removal);
    ("jobq: iteration survives removal", `Quick, test_jobq_iter_safe_against_removal);
    ("placer: compact shapes first", `Quick, test_placer_compactness);
    ("placer: congestion steers placement", `Quick, test_placer_scores_congestion);
    ("easy: head reservation never delayed", `Quick, test_easy_head_reservation);
    ("gang: all-or-none co-scheduling", `Quick, test_gang_all_or_none);
    ("fair: weighted shares within tolerance", `Quick, test_fair_share_weights);
    ("strategy: a start ends the failure-set pass", `Quick, test_start_ends_failure_pass);
    ( "scheduler: duplicate completions idempotent",
      `Quick,
      test_duplicate_completions_idempotent );
    ("scheduler: scan visits stay linear", `Quick, test_scan_visits_stay_linear);
    ("scheduler: a requeue rebuilds the job view", `Quick, test_requeue_rebuilds_job_view);
    ("service: same-seed SLO bill reproduces", `Quick, test_service_deterministic_slo);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_placer_matches_reference;
        prop_failure_depends_on_size_alone;
        prop_placer_equals_today;
      ]
