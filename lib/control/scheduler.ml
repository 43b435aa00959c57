open Bg_engine
module Obs = Bg_obs.Obs

type job_id = int

type job_state =
  | Queued
  | Running of int list
  | Completed of Cycles.t
  | Failed of Cycles.t

type job_class = Batch | Backfill_class

type job_info = {
  info_jid : job_id;
  info_shape : int * int * int;
  info_cls : job_class;
  info_tenant : int option;  (* SLO accounting scope; None = anonymous *)
  info_gang : int option;  (* co-scheduling group: all members start together *)
  info_est : int option;  (* user runtime estimate, for reservations *)
  info_walltime : int option;
  info_submitted : Cycles.t;  (* (re)submission cycle, for queue-wait timing *)
  info_restarts : int;
}

type running_info = {
  run_info : job_info;
  run_ranks : int list;
  run_started : Cycles.t;
}

(* A job's fixed description and its incarnation's submit cycle and
   restart count live in [view], the record strategies read: built once
   at submit and replaced only when a failed incarnation bumps the
   restart count or is requeued, so listing the queue builds no record
   per job. *)
type pending = {
  mutable view : job_info;
  factory : ranks:int list -> Job.t;
  restart_limit : int;
  first_submitted : Cycles.t;  (* original submission, for turnaround timing *)
  mutable failed_at : Cycles.t option;  (* when RAS declared the incarnation dead *)
}

(* A running incarnation; [info] is what {!running_info} lists. *)
type run = {
  job : pending;
  alloc : Partition.allocation;
  span : Obs.handle;
  info : running_info;
}

type t = {
  cluster : Cnk.Cluster.t;
  partition : Partition.t;
  backfill : bool;
  queue : pending Jobq.t;  (* FIFO, head first; O(1) append/remove *)
  states : (job_id, job_state) Hashtbl.t;
  jobs : (job_id, pending) Hashtbl.t;  (* every job ever submitted *)
  running : (job_id, run) Hashtbl.t;
  mutable running_view : running_info list;  (* [running]'s views, ascending job id *)
  mutable pending_view : job_info list option;
      (* the queue's views, head first, while the queue has not changed *)
  reported : (job_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* ranks whose completion event arrived for the live incarnation *)
  tenant_usage : (int, int) Hashtbl.t;  (* tenant -> busy node-cycles *)
  mutable next_id : int;
  mutable done_order : job_id list;
  mutable outstanding : int;
  mutable scan_visits : int;  (* queue nodes examined by start scans *)
  mutable duplicate_completions : int;
  (* pluggable strategy: replaces the built-in FIFO/backfill pick *)
  mutable dispatch : (unit -> unit) option;
  mutable in_dispatch : bool;
  mutable on_start : (job_id -> ranks:int list -> unit) list;
  mutable on_done : (job_id -> job_state -> unit) list;
  (* self-healing control plane (all inert until a policy engine sets them) *)
  mutable restart_policy : (jid:job_id -> attempt:int -> int) option;
  mutable shape_cap : (int * int * int) option;
  mutable admission : bool;  (* false = degraded tier 3: reject new submits *)
  mutable rejected : int;
}

let obs t = (Cnk.Cluster.machine t.cluster).Machine.obs
let now t = Sim.now (Cnk.Cluster.sim t.cluster)

(* Job lifecycle in the causal graph: submit, start and finish live on
   the control-system scope (rank -1), one lane per job id. Program-order
   chaining on that lane links them Parent_child automatically. *)
let causal_mark t ~jid name =
  let g = (Cnk.Cluster.machine t.cluster).Machine.causal in
  if Bg_obs.Causal.enabled g then
    ignore
      (Bg_obs.Causal.mint g ~cat:"scheduler"
         ~name:(Printf.sprintf "job.%d.%s" jid name)
         ~rank:Obs.node_scope ~core:jid ~now:(now t) ())
let cluster t = t.cluster
let partition t = t.partition

let create ?(backfill = false) cluster =
  let machine = Cnk.Cluster.machine cluster in
  let dims = Bg_hw.Torus.dims machine.Machine.torus in
  {
    cluster;
    partition = Partition.create ~dims;
    backfill;
    queue = Jobq.create ();
    states = Hashtbl.create 16;
    jobs = Hashtbl.create 16;
    running = Hashtbl.create 16;
    running_view = [];
    pending_view = None;
    reported = Hashtbl.create 16;
    tenant_usage = Hashtbl.create 16;
    next_id = 1;
    done_order = [];
    outstanding = 0;
    scan_visits = 0;
    duplicate_completions = 0;
    dispatch = None;
    in_dispatch = false;
    on_start = [];
    on_done = [];
    restart_policy = None;
    shape_cap = None;
    admission = true;
    rejected = 0;
  }

(* Every change to the queue goes through these three, which keep the
   cached list of views in step: a submit or a requeue drops it, and
   taking the head (the usual start) leaves its tail, still valid. *)
let enqueue t (p : pending) =
  Jobq.append t.queue ~key:p.view.info_jid p;
  t.pending_view <- None

let enqueue_front t (p : pending) =
  Jobq.push_front t.queue ~key:p.view.info_jid p;
  t.pending_view <- None

let dequeue t jid =
  ignore (Jobq.remove t.queue jid);
  t.pending_view <-
    (match t.pending_view with
    | Some (head :: rest) when head.info_jid = jid -> Some rest
    | _ -> None)

let submit_factory t ?walltime_cycles ?(restart_limit = 0) ?(cls = Batch) ?tenant
    ?gang ?est_cycles ~shape factory =
  let x, y, z = Bg_hw.Torus.dims (Cnk.Cluster.machine t.cluster).Machine.torus in
  let sx, sy, sz = shape in
  if sx > x || sy > y || sz > z then failwith "Scheduler.submit: job can never fit";
  let jid = t.next_id in
  t.next_id <- jid + 1;
  let pending =
    {
      view =
        {
          info_jid = jid;
          info_shape = shape;
          info_cls = cls;
          info_tenant = tenant;
          info_gang = gang;
          info_est = est_cycles;
          info_walltime = walltime_cycles;
          info_submitted = now t;
          info_restarts = 0;
        };
      factory;
      restart_limit;
      first_submitted = now t;
      failed_at = None;
    }
  in
  enqueue t pending;
  Hashtbl.replace t.states jid Queued;
  Hashtbl.replace t.jobs jid pending;
  t.outstanding <- t.outstanding + 1;
  Obs.count (obs t) Metrics.Scheduler.jobs_submitted;
  causal_mark t ~jid "submit";
  jid

let submit t ?walltime_cycles ~shape job =
  submit_factory t ?walltime_cycles ~shape (fun ~ranks:_ -> job)

(* Admission-controlled front door: under degraded tier 3 the submit is
   refused outright (counted), instead of joining a queue the machine
   cannot drain. *)
let offer_factory t ?walltime_cycles ?restart_limit ?cls ?tenant ?gang ?est_cycles
    ~shape factory =
  if t.admission then
    Ok
      (submit_factory t ?walltime_cycles ?restart_limit ?cls ?tenant ?gang
         ?est_cycles ~shape factory)
  else begin
    t.rejected <- t.rejected + 1;
    Obs.count (obs t) Metrics.Scheduler.jobs_rejected;
    (match tenant with
    | Some tid -> Obs.add (obs t) ~rank:tid ~core:Obs.node_scope Metrics.Sched.jobs_rejected 1
    | None -> ());
    Error `Admission_closed
  end

let set_admission t open_ = t.admission <- open_
let admission_open t = t.admission
let rejected_count t = t.rejected
let set_shape_cap t cap = t.shape_cap <- cap
let shape_cap t = t.shape_cap
let scan_visits t = t.scan_visits
let duplicate_completions t = t.duplicate_completions
let pending_count t = Jobq.length t.queue
let set_dispatch t f = t.dispatch <- f
let on_job_start t f = t.on_start <- t.on_start @ [ f ]
let on_job_done t f = t.on_done <- t.on_done @ [ f ]

let tenant_usage t tid =
  match Hashtbl.find_opt t.tenant_usage tid with Some v -> v | None -> 0

let pending_info t =
  match t.pending_view with
  | Some view -> view
  | None ->
    let view = Jobq.fold_back t.queue ~init:[] ~f:(fun _ p acc -> p.view :: acc) in
    t.pending_view <- Some view;
    view

let running_info t = t.running_view

let rec insert_running (r : running_info) = function
  | x :: rest when x.run_info.info_jid < r.run_info.info_jid -> x :: insert_running r rest
  | l -> r :: l

let rec remove_running jid = function
  | [] -> []
  | x :: rest -> if x.run_info.info_jid = jid then rest else x :: remove_running jid rest

(* Under a shape cap (degraded tier 2) large jobs wait even if space is
   free: a shrunken machine stops handing out its biggest blocks. *)
let within_cap t (sx, sy, sz) =
  match t.shape_cap with
  | None -> true
  | Some (cx, cy, cz) -> sx <= cx && sy <= cy && sz <= cz

(* The SLO bounded-slowdown floor: shorter runtimes do not inflate the
   metric without bound (Feitelson's tau). *)
let slowdown_tau = 10_000

(* Try to start queued jobs; FIFO unless backfill is on, in which case
   later jobs may start past a blocked head. A pluggable dispatch
   strategy, when installed, replaces this pick logic entirely. *)
let rec try_start t =
  match t.dispatch with
  | Some f ->
    if not t.in_dispatch then begin
      (* strategies drive starts themselves; guard against re-entry when
         a start they trigger re-kicks the scheduler *)
      t.in_dispatch <- true;
      Fun.protect ~finally:(fun () -> t.in_dispatch <- false) f
    end
  | None -> try_start_builtin t

and try_start_builtin t =
  match Jobq.peek t.queue with
  | None -> ()
  | Some (head_jid, head) -> (
    t.scan_visits <- t.scan_visits + 1;
    match
      if within_cap t head.view.info_shape then
        Partition.allocate t.partition ~shape:head.view.info_shape
      else Error "blocked by shape cap"
    with
    | Ok alloc ->
      dequeue t head_jid;
      start t head alloc;
      try_start_builtin t
    | Error _ ->
      if t.backfill then begin
        (* find the first later job that fits *)
        let picked = ref None in
        (try
           Jobq.iter t.queue (fun jid p ->
               if jid <> head_jid && !picked = None then begin
                 t.scan_visits <- t.scan_visits + 1;
                 match
                   if within_cap t p.view.info_shape then
                     Partition.allocate t.partition ~shape:p.view.info_shape
                   else Error "blocked by shape cap"
                 with
                 | Ok alloc ->
                   picked := Some (p, alloc);
                   raise Exit
                 | Error _ -> ()
               end)
         with Exit -> ());
        match !picked with
        | None -> ()
        | Some (p, alloc) ->
          dequeue t p.view.info_jid;
          Obs.count (obs t) Metrics.Scheduler.backfill_started;
          start t p alloc;
          try_start_builtin t
      end)

and start t pending alloc =
  let o = obs t in
  let start_cycle = now t in
  let view = pending.view in
  let jid = view.info_jid in
  (* Scheduler decisions live under the control-system pid, one tid lane
     per job id, so a queue's history reads as a Gantt chart. *)
  Obs.count o Metrics.Scheduler.jobs_started;
  Obs.observe o ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Scheduler.queue_wait_cycles
    (start_cycle - view.info_submitted);
  (match view.info_tenant with
  | Some tid ->
    Obs.observe o ~rank:tid ~core:Obs.node_scope Metrics.Sched.queue_wait_cycles
      (start_cycle - view.info_submitted)
  | None -> ());
  (match pending.failed_at with
  | Some failed when view.info_restarts > 0 ->
    Obs.observe o ~rank:Obs.node_scope ~core:Obs.node_scope
      Metrics.Scheduler.recovery_latency_cycles
      (start_cycle - failed);
    pending.failed_at <- None
  | _ -> ());
  let span =
    Obs.span_begin o ~cat:"scheduler"
      ~name:(Printf.sprintf "job.%d" jid)
      ~rank:Obs.node_scope ~core:jid ~now:start_cycle
  in
  causal_mark t ~jid "start";
  let ranks = alloc.Partition.ranks in
  let info = { run_info = view; run_ranks = ranks; run_started = start_cycle } in
  Hashtbl.replace t.states jid (Running ranks);
  Hashtbl.replace t.running jid { job = pending; alloc; span; info };
  t.running_view <- insert_running info t.running_view;
  Hashtbl.replace t.reported jid (Hashtbl.create (List.length ranks));
  let job = pending.factory ~ranks in
  List.iter
    (fun rank ->
      let node = Cnk.Cluster.node t.cluster rank in
      Cnk.Node.on_job_complete node (fun () -> member_completed t jid ~rank))
    ranks;
  List.iter
    (fun rank ->
      match Cnk.Node.launch (Cnk.Cluster.node t.cluster rank) job with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "launch on rank %d: %s" rank e))
    ranks;
  List.iter (fun f -> f jid ~ranks) t.on_start;
  match view.info_walltime with
  | None -> ()
  | Some limit ->
    let sim = Cnk.Cluster.sim t.cluster in
    let incarnation = view.info_restarts in
    ignore
      (Bg_engine.Sim.schedule_in sim limit (fun () ->
           match Hashtbl.find_opt t.states jid with
           | Some (Running _) when pending.view.info_restarts = incarnation ->
             (* kill, but tell RAS first: silent job disappearance is the
                §VI diagnosability sin *)
             let machine = Cnk.Cluster.machine t.cluster in
             let rank = List.hd ranks in
             Machine.ras_note machine ~rank Bg_obs.Rasdb.Warn
               (Printf.sprintf "SCHED walltime job=%d rank=%d limit=%d" jid rank limit);
             Obs.count o Metrics.Scheduler.walltime_kills;
             List.iter (fun rank -> Cnk.Node.kill_job (Cnk.Cluster.node t.cluster rank)) ranks
           | _ -> ()))

(* The per-member completion event. The control network replays and
   duplicates, so this is idempotent at both granularities: a second
   event for a (job, rank) that already reported is dropped (counted),
   and an event for a job that is no longer running is dropped too. *)
and member_completed t jid ~rank =
  match Hashtbl.find_opt t.running jid with
  | None ->
    t.duplicate_completions <- t.duplicate_completions + 1;
    Obs.count (obs t) Metrics.Scheduler.duplicate_completions
  | Some run ->
    let seen =
      match Hashtbl.find_opt t.reported jid with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace t.reported jid s;
        s
    in
    if Hashtbl.mem seen rank || not (List.mem rank run.alloc.Partition.ranks) then begin
      t.duplicate_completions <- t.duplicate_completions + 1;
      Obs.count (obs t) Metrics.Scheduler.duplicate_completions
    end
    else begin
      Hashtbl.replace seen rank ();
      if Hashtbl.length seen = List.length run.alloc.Partition.ranks then finish t run
    end

(* Every member node reported completion: decide between terminal states
   and a restart. A job failed if any process on any member node exited
   nonzero (a crash, a kill after a node death, or a walltime kill). *)
and finish t { job = pending; alloc; span; info } =
  let jid = pending.view.info_jid in
  if Hashtbl.mem t.running jid then begin
    let o = obs t in
    let started = info.run_started in
    Partition.release t.partition alloc.Partition.id;
    Hashtbl.remove t.running jid;
    t.running_view <- remove_running jid t.running_view;
    Hashtbl.remove t.reported jid;
    Obs.span_end o span ~now:(now t);
    causal_mark t ~jid "finish";
    (match pending.view.info_tenant with
    | Some tid ->
      let busy = (now t - started) * List.length alloc.Partition.ranks in
      Hashtbl.replace t.tenant_usage tid (tenant_usage t tid + busy);
      Obs.add o ~rank:tid ~core:Obs.node_scope Metrics.Sched.busy_node_cycles busy;
      Obs.add o ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Sched.busy_node_cycles busy
    | None -> ());
    let failed =
      List.exists
        (fun rank ->
          List.exists
            (fun (_, code) -> code <> 0)
            (Cnk.Node.exit_codes (Cnk.Cluster.node t.cluster rank)))
        alloc.Partition.ranks
    in
    if failed && pending.view.info_restarts < pending.restart_limit then begin
      let attempt = pending.view.info_restarts + 1 in
      pending.view <- { pending.view with info_restarts = attempt };
      Hashtbl.replace t.states jid Queued;
      let machine = Cnk.Cluster.machine t.cluster in
      let requeue () =
        pending.view <- { pending.view with info_submitted = now t };
        (* requeue at the head: recovery preempts the waiting line *)
        enqueue_front t pending;
        Obs.count o Metrics.Scheduler.jobs_restarted;
        Machine.ras_note machine
          ~rank:(List.hd alloc.Partition.ranks)
          Bg_obs.Rasdb.Info
          (Printf.sprintf "SCHED restart job=%d attempt=%d" jid attempt);
        try_start t
      in
      (* A recovery policy may hold the retry back (deterministic backoff:
         the delay is a pure function of (job, attempt)); the default is
         the classic immediate requeue. *)
      match t.restart_policy with
      | None -> requeue ()
      | Some f ->
        let delay = f ~jid ~attempt in
        if delay <= 0 then requeue ()
        else ignore (Sim.schedule_in (Cnk.Cluster.sim t.cluster) delay requeue)
    end
    else begin
      let state =
        if failed && pending.restart_limit > 0 then Failed (now t) else Completed (now t)
      in
      Hashtbl.replace t.states jid state;
      t.done_order <- jid :: t.done_order;
      t.outstanding <- t.outstanding - 1;
      Obs.count o Metrics.Scheduler.jobs_completed;
      (* Turnaround: original submission to final disposition, across any
         restarts — the series the health service trends per window. *)
      let turnaround = now t - pending.first_submitted in
      Obs.observe o ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Scheduler.turnaround_cycles
        turnaround;
      (match pending.view.info_tenant with
      | Some tid ->
        Obs.observe o ~rank:tid ~core:Obs.node_scope Metrics.Sched.turnaround_cycles turnaround;
        (* bounded slowdown, in milli-units: turnaround over max(run, tau) *)
        let run = max (now t - started) 1 in
        let slowdown = turnaround * 1000 / max run slowdown_tau in
        Obs.observe o ~rank:tid ~core:Obs.node_scope Metrics.Sched.bounded_slowdown_milli
          (max slowdown 1000);
        Obs.add o ~rank:tid ~core:Obs.node_scope
          (match state with
          | Failed _ -> Metrics.Sched.jobs_failed
          | _ -> Metrics.Sched.jobs_completed)
          1
      | None -> ());
      List.iter (fun f -> f jid state) t.on_done;
      try_start t
    end
  end

(* Placement-directed start of one specific queued job, for pluggable
   strategies: allocate (at [base] if the placer chose one, reshaped to
   [shape] if it picked a different box of the same volume) and launch.
   Not finding the job queued, or failing the shape cap or allocation,
   is an [Error] and leaves the queue untouched. *)
let reserve t ?base ?shape jid =
  match Jobq.find t.queue jid with
  | None -> Error "not queued"
  | Some p ->
    let sx, sy, sz = p.view.info_shape in
    let shape = match shape with Some s -> s | None -> p.view.info_shape in
    let nx, ny, nz = shape in
    if nx * ny * nz <> sx * sy * sz then Error "reshape changes node count"
    else if not (within_cap t shape) then Error "blocked by shape cap"
    else begin
      match Partition.allocate ?base t.partition ~shape with
      | Error e -> Error e
      | Ok alloc -> Ok (p, alloc)
    end

let start_job t ?base ?shape jid =
  match reserve t ?base ?shape jid with
  | Error e -> Error e
  | Ok (p, alloc) ->
    dequeue t jid;
    start t p alloc;
    Ok ()

(* All-or-none co-scheduling for gangs: every member's allocation must
   succeed before any member launches; one failure rolls all of them
   back and the queue is untouched. *)
let start_jobs t specs =
  let rec reserve_all acc = function
    | [] -> Ok (List.rev acc)
    | (jid, base, shape) :: rest -> (
      match reserve t ?base ?shape jid with
      | Ok r -> reserve_all (r :: acc) rest
      | Error e ->
        List.iter
          (fun (_, alloc) -> Partition.release t.partition alloc.Partition.id)
          acc;
        Error (Printf.sprintf "job %d: %s" jid e))
  in
  match reserve_all [] specs with
  | Error e -> Error e
  | Ok reserved ->
    List.iter
      (fun ((p : pending), alloc) ->
        dequeue t p.view.info_jid;
        start t p alloc)
      reserved;
    Ok ()

let mark_down t ~rank =
  if not (Partition.is_down t.partition ~rank) then begin
    Partition.set_down t.partition ~rank true;
    Obs.count (obs t) Metrics.Scheduler.nodes_down
  end

(* Kill the running job that spans [rank], if any. Survivors of a member
   failure would otherwise spin forever on messages (or barriers) that can
   no longer complete, so the whole gang dies in the same cycle. *)
let kill_spanning t ~rank =
  let victim =
    Hashtbl.fold
      (fun _ run acc -> if List.mem rank run.alloc.Partition.ranks then Some run else acc)
      t.running None
  in
  match victim with
  | None -> ()
  | Some { job; alloc; _ } ->
    job.failed_at <- Some (now t);
    let machine = Cnk.Cluster.machine t.cluster in
    Machine.ras_note machine ~rank Bg_obs.Rasdb.Error
      (Printf.sprintf "SCHED job_lost job=%d rank=%d" job.view.info_jid rank);
    List.iter
      (fun r -> Cnk.Node.kill_job (Cnk.Cluster.node t.cluster r))
      alloc.Partition.ranks

let mark_up t ~rank =
  if Partition.is_down t.partition ~rank then begin
    Partition.set_down t.partition ~rank false;
    Obs.count (obs t) Metrics.Scheduler.nodes_revived
  end

(* Idempotent: RAS streams replay, retransmit and duplicate — the second
   death notice for an already-down rank must not kill whatever job has
   since been reallocated over different hardware. *)
let node_failed t ~rank =
  if not (Partition.is_down t.partition ~rank) then begin
    mark_down t ~rank;
    kill_spanning t ~rank
  end

(* An unrecoverable I/O node takes its whole pset with it (the compute
   nodes it served have no other path to the filesystem): every member is
   excluded from future allocations and any job spanning one of them is
   lost. *)
let pset_failed t ~ranks =
  (match ranks with
  | first :: _ ->
    let machine = Cnk.Cluster.machine t.cluster in
    Machine.ras_note machine ~rank:first Bg_obs.Rasdb.Error
      (Printf.sprintf "SCHED pset_lost ranks=%s"
         (String.concat "," (List.map string_of_int ranks)))
  | [] -> ());
  (* no allocation can span an already-down rank, so only freshly-downed
     members can carry a job — killing just those makes a replayed pset
     event a no-op instead of a stray gang kill *)
  let fresh = List.filter (fun rank -> not (Partition.is_down t.partition ~rank)) ranks in
  List.iter (fun rank -> mark_down t ~rank) ranks;
  List.iter (fun rank -> kill_spanning t ~rank) fresh

let job_crashed t ~rank = kill_spanning t ~rank

(* Graceful degradation tier 1: queued backfill-class jobs are shed —
   declared Failed without ever running — so a sick machine spends its
   remaining capacity on the batch jobs users are waiting on. *)
let shed_backfill t =
  let shed =
    Jobq.fold t.queue ~init:[] ~f:(fun acc _ p ->
        if p.view.info_cls = Backfill_class then p :: acc else acc)
    |> List.rev
  in
  List.iter
    (fun p ->
      dequeue t p.view.info_jid;
      Hashtbl.replace t.states p.view.info_jid (Failed (now t));
      t.done_order <- p.view.info_jid :: t.done_order;
      t.outstanding <- t.outstanding - 1;
      Obs.count (obs t) Metrics.Scheduler.jobs_shed;
      (match p.view.info_tenant with
      | Some tid -> Obs.add (obs t) ~rank:tid ~core:Obs.node_scope Metrics.Sched.jobs_shed 1
      | None -> ());
      causal_mark t ~jid:p.view.info_jid "shed";
      List.iter (fun f -> f p.view.info_jid (Failed (now t))) t.on_done)
    shed;
  List.map (fun p -> p.view.info_jid) shed

let set_restart_policy t f = t.restart_policy <- f
let kick t = try_start t

let drain t =
  try_start t;
  let sim = Cnk.Cluster.sim t.cluster in
  let rec pump () =
    if t.outstanding > 0 then
      if Sim.step sim then pump ()
      else
        failwith
          (Printf.sprintf "Scheduler.drain: %d job(s) stuck with an empty event queue"
             t.outstanding)
  in
  pump ()

let outstanding t = t.outstanding

let state t jid =
  match Hashtbl.find_opt t.states jid with
  | Some s -> s
  | None -> invalid_arg "Scheduler.state: unknown job"

let restarts t jid =
  match Hashtbl.find_opt t.jobs jid with
  | Some p -> p.view.info_restarts
  | None -> invalid_arg "Scheduler.restarts: unknown job"

let completed_order t = List.rev t.done_order

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.next_id;
  w_i t.outstanding;
  Buffer.add_uint8 b (if t.backfill then 1 else 0);
  Buffer.add_uint8 b (if t.admission then 1 else 0);
  w_i t.rejected;
  (match t.shape_cap with
  | None -> w_i (-1)
  | Some (cx, cy, cz) ->
    w_i cx;
    w_i cy;
    w_i cz);
  w_i (Jobq.length t.queue);
  Jobq.iter t.queue (fun _ p ->
      w_i p.view.info_jid;
      w_i p.view.info_restarts;
      w_i p.view.info_submitted;
      Buffer.add_uint8 b (match p.view.info_cls with Batch -> 0 | Backfill_class -> 1);
      w_i (match p.view.info_tenant with Some tid -> tid | None -> -1);
      w_i (match p.view.info_gang with Some g -> g | None -> -1));
  let states =
    Hashtbl.fold (fun jid s acc -> (jid, s) :: acc) t.states []
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  w_i (List.length states);
  List.iter
    (fun (jid, s) ->
      w_i jid;
      match s with
      | Queued -> Buffer.add_uint8 b 0
      | Running ranks ->
        Buffer.add_uint8 b 1;
        w_i (List.length ranks);
        List.iter w_i ranks
      | Completed c ->
        Buffer.add_uint8 b 2;
        w_i c
      | Failed c ->
        Buffer.add_uint8 b 3;
        w_i c)
    states;
  let running =
    Hashtbl.fold (fun jid run acc -> (jid, run.alloc.Partition.id) :: acc) t.running []
    |> List.sort compare
  in
  w_i (List.length running);
  List.iter
    (fun (jid, aid) ->
      w_i jid;
      w_i aid)
    running;
  let done_order = List.rev t.done_order in
  w_i (List.length done_order);
  List.iter w_i done_order;
  Partition.capture t.partition b
