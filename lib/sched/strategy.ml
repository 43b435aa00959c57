module Sch = Bg_control.Scheduler
module Partition = Bg_control.Partition
module Obs = Bg_obs.Obs

type kind = Fcfs | Easy | Gang | Fair

let kind_name = function
  | Fcfs -> "fcfs"
  | Easy -> "easy"
  | Gang -> "gang"
  | Fair -> "fair"

let kind_of_string = function
  | "fcfs" -> Some Fcfs
  | "easy" -> Some Easy
  | "gang" -> Some Gang
  | "fair" -> Some Fair
  | _ -> None

let all_kinds = [ Fcfs; Easy; Gang; Fair ]

type config = {
  comm_of : Sch.job_id -> bool;
  weight_of : int -> int;
}

let default_config = { comm_of = (fun _ -> false); weight_of = (fun _ -> 1) }

type t = {
  kind : kind;
  sched : Sch.t;
  torus : Bg_hw.Torus.t;
  shapes : Placer.table;  (* the torus's shapes per node count *)
  config : config;
  reservations : (Sch.job_id, int) Hashtbl.t;
  mutable backfilled : int;
  mutable gangs_started : int;
  failed_in : int array;  (* node count -> the pass its placement last failed in *)
  mutable pass : int;
}

let kind_of t = t.kind
let backfilled t = t.backfilled
let gangs_started t = t.gangs_started
let reservation t jid = Hashtbl.find_opt t.reservations jid

let nodes_of (i : Sch.job_info) =
  let x, y, z = i.Sch.info_shape in
  x * y * z

(* The runtime bound a reservation may rely on: the walltime kill is a
   hard ceiling; a bare estimate is the user's promise. Jobs with
   neither poison any reservation that would need them to end. *)
let bound_of (i : Sch.job_info) =
  match i.Sch.info_walltime with Some w -> Some w | None -> i.Sch.info_est

let obs t = (Cnk.Cluster.machine (Sch.cluster t.sched)).Machine.obs
let now t = Bg_engine.Sim.now (Cnk.Cluster.sim (Sch.cluster t.sched))

(* A dispatch pass runs from a kick (or a start) to the next start.
   Within one, the partition, the shape cap and the torus stand still,
   and whether a job places depends on its node count alone, so a count
   that failed fails again for every later job of that size: [failed_in]
   remembers it until the pass ends. Starts must end the pass: filling
   nodes can turn a capped failure into a success. *)
let new_pass t = t.pass <- t.pass + 1

let failed_this_pass t n = n < Array.length t.failed_in && t.failed_in.(n) = t.pass

(* Place one queued job through the torus-aware placer and start it. *)
let place_and_start t (i : Sch.job_info) =
  let n = nodes_of i in
  if failed_this_pass t n then Error "no placement for this size this pass"
  else
    match
      Placer.place ~fits:(Sch.within_cap t.sched) t.shapes t.torus (Sch.partition t.sched)
        ~nodes:n ~comm:(t.config.comm_of i.Sch.info_jid)
    with
    | Error e ->
      if n < Array.length t.failed_in then t.failed_in.(n) <- t.pass;
      Error e
    | Ok { Placer.shape; base } ->
      let r = Sch.start_job t.sched ?base ~shape i.Sch.info_jid in
      if Result.is_ok r then new_pass t;
      r

let count_backfill t started_head =
  if not started_head then begin
    t.backfilled <- t.backfilled + 1;
    Obs.count (obs t) Metrics.Scheduler.backfill_started
  end

(* --- EASY reservation arithmetic (node-count model) -----------------

   The head job's shadow time: walk running jobs' bounded completion
   times in order, accumulating freed nodes until the head fits. Also
   yields the nodes left over at that moment — the "extra" a backfill
   job may occupy indefinitely without delaying the head. Any running
   job without a bound poisons the computation (None: no reservation,
   so no backfill — strictly conservative). *)
let shadow t ~need ~at =
  let p = Sch.partition t.sched in
  let free = Partition.free_nodes p in
  if free >= need then Some (at, free - need)
  else begin
    let running = Sch.running_info t.sched in
    let ends =
      List.filter_map
        (fun (r : Sch.running_info) ->
          match bound_of r.Sch.run_info with
          | None -> None
          | Some b -> Some (r.Sch.run_started + b, nodes_of r.Sch.run_info))
        running
    in
    if List.length ends <> List.length running then None
    else begin
      let ends = List.sort compare ends in
      let rec walk free = function
        | [] -> None
        | (e, n) :: rest ->
          let free = free + n in
          if free >= need then Some (e, free - need) else walk free rest
      in
      walk free ends
    end
  end

(* May [cand] start now without delaying a head reserved at [sh] with
   [extra] spare nodes? Either it provably ends in time, or it fits in
   the nodes the reservation does not need. *)
let easy_ok ~at ~sh ~extra (cand : Sch.job_info) =
  let n = nodes_of cand in
  (match bound_of cand with Some b -> at + b <= sh | None -> false) || n <= extra

(* --- FCFS ----------------------------------------------------------- *)

let rec dispatch_fcfs t () =
  match Sch.pending_info t.sched with
  | [] -> ()
  | head :: _ -> (
    match place_and_start t head with Ok () -> dispatch_fcfs t () | Error _ -> ())

(* --- EASY backfill --------------------------------------------------- *)

let rec dispatch_easy t () =
  match Sch.pending_info t.sched with
  | [] -> ()
  | head :: rest -> (
    match place_and_start t head with
    | Ok () -> dispatch_easy t ()
    | Error _ -> (
      let at = now t in
      match shadow t ~need:(nodes_of head) ~at with
      | None -> ()  (* unbounded running job: no reservation, no backfill *)
      | Some (sh, extra) ->
        if not (Hashtbl.mem t.reservations head.Sch.info_jid) then
          Hashtbl.replace t.reservations head.Sch.info_jid sh;
        let rec try_candidates = function
          | [] -> ()
          | cand :: more ->
            if easy_ok ~at ~sh ~extra cand then begin
              match place_and_start t cand with
              | Ok () ->
                count_backfill t false;
                (* machine changed: recompute everything *)
                dispatch_easy t ()
              | Error _ -> try_candidates more
            end
            else try_candidates more
        in
        try_candidates rest))

(* --- Gang ------------------------------------------------------------

   The queue, folded into units: a gang id's members (which arrive in
   one burst) collapse into a single all-or-none unit at the position of
   its first queued member; everything else is a unit of one. *)
type unit_ = { members : Sch.job_info list; unit_nodes : int; unit_bound : int option }

let units pending =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (i : Sch.job_info) ->
      match i.Sch.info_gang with
      | None ->
        Some { members = [ i ]; unit_nodes = nodes_of i; unit_bound = bound_of i }
      | Some g ->
        if Hashtbl.mem seen g then None
        else begin
          Hashtbl.replace seen g ();
          let members =
            List.filter (fun (j : Sch.job_info) -> j.Sch.info_gang = Some g) pending
          in
          let unit_nodes = List.fold_left (fun a j -> a + nodes_of j) 0 members in
          let unit_bound =
            List.fold_left
              (fun acc j ->
                match (acc, bound_of j) with
                | Some a, Some b -> Some (max a b)
                | _ -> None)
              (Some 0) members
          in
          Some { members; unit_nodes; unit_bound }
        end)
    pending

let start_unit t u =
  match u.members with
  | [ single ] ->
    (match place_and_start t single with Ok () -> true | Error _ -> false)
  | members -> (
    match
      Sch.start_jobs t.sched
        (List.map (fun (j : Sch.job_info) -> (j.Sch.info_jid, None, None)) members)
    with
    | Ok () ->
      new_pass t;
      t.gangs_started <- t.gangs_started + 1;
      true
    | Error _ -> false)

let rec dispatch_gang t () =
  match units (Sch.pending_info t.sched) with
  | [] -> ()
  | head :: rest ->
    if start_unit t head then dispatch_gang t ()
    else begin
      let at = now t in
      match shadow t ~need:head.unit_nodes ~at with
      | None -> ()
      | Some (sh, extra) ->
        (match head.members with
        | first :: _ ->
          if not (Hashtbl.mem t.reservations first.Sch.info_jid) then
            Hashtbl.replace t.reservations first.Sch.info_jid sh
        | [] -> ());
        let unit_ok u =
          (match u.unit_bound with Some b -> at + b <= sh | None -> false)
          || u.unit_nodes <= extra
        in
        let rec try_candidates = function
          | [] -> ()
          | cand :: more ->
            if unit_ok cand && start_unit t cand then begin
              count_backfill t false;
              dispatch_gang t ()
            end
            else try_candidates more
        in
        try_candidates rest
    end

(* --- Weighted fair-share ---------------------------------------------

   Tenants are ordered by busy node-cycles per unit weight — completed
   usage from the scheduler's ledger plus the live progress of running
   jobs — and the queue replayed in that order, greedily and
   work-conservingly. Anonymous jobs (no tenant) sort after everyone. *)
let fair_priority t ~at =
  let usage = Hashtbl.create 16 in
  List.iter
    (fun (r : Sch.running_info) ->
      match r.Sch.run_info.Sch.info_tenant with
      | Some tid ->
        let live = (at - r.Sch.run_started) * nodes_of r.Sch.run_info in
        Hashtbl.replace usage tid
          ((match Hashtbl.find_opt usage tid with Some v -> v | None -> 0) + live)
      | None -> ())
    (Sch.running_info t.sched);
  fun (i : Sch.job_info) ->
    match i.Sch.info_tenant with
    | None -> max_int
    | Some tid ->
      let total =
        Sch.tenant_usage t.sched tid
        + (match Hashtbl.find_opt usage tid with Some v -> v | None -> 0)
      in
      total / max (t.config.weight_of tid) 1

let rec dispatch_fair t () =
  let pending = Sch.pending_info t.sched in
  if pending <> [] then begin
    let prio = fair_priority t ~at:(now t) in
    (* each job's priority once per pass, then (prio, submitted, jid) *)
    let ordered =
      List.map (fun (i : Sch.job_info) -> (prio i, i)) pending
      |> List.stable_sort (fun (pa, (a : Sch.job_info)) (pb, (b : Sch.job_info)) ->
             let c = Int.compare pa pb in
             if c <> 0 then c
             else
               let c = Int.compare a.Sch.info_submitted b.Sch.info_submitted in
               if c <> 0 then c else Int.compare a.Sch.info_jid b.Sch.info_jid)
      |> List.map snd
    in
    let rec try_each started = function
      | [] -> started
      | cand :: more -> (
        match place_and_start t cand with
        | Ok () -> true  (* usage and space changed: recompute order *)
        | Error _ -> try_each started more)
    in
    if try_each false ordered then dispatch_fair t ()
  end

let install ?(config = default_config) kind sched =
  let torus = (Cnk.Cluster.machine (Sch.cluster sched)).Machine.torus in
  let t =
    {
      kind;
      sched;
      torus;
      shapes = Placer.table ~dims:(Bg_hw.Torus.dims torus);
      config;
      reservations = Hashtbl.create 64;
      backfilled = 0;
      gangs_started = 0;
      failed_in = Array.make (Partition.total_nodes (Sch.partition sched) + 1) 0;
      pass = 1;
    }
  in
  let dispatch =
    match kind with
    | Fcfs -> dispatch_fcfs t
    | Easy -> dispatch_easy t
    | Gang -> dispatch_gang t
    | Fair -> dispatch_fair t
  in
  Sch.set_dispatch sched
    (Some
       (fun () ->
         new_pass t;
         dispatch ()));
  t

let uninstall t = Sch.set_dispatch t.sched None
