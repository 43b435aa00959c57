open Bg_engine
module Obs = Bg_obs.Obs

type config = {
  parity_mean : float;
  death_mean : float;
  link_mean : float;
  link_repair_after : int;
  ciod_crash_mean : float;
  ciod_restart_after : int;
  horizon : int;
}

let default =
  {
    parity_mean = 0.;
    death_mean = 0.;
    link_mean = 0.;
    link_repair_after = 200_000;
    ciod_crash_mean = 0.;
    ciod_restart_after = 150_000;
    horizon = max_int;
  }

type t = {
  cluster : Cnk.Cluster.t;
  config : config;
  mutable log : (Cycles.t * Fault_event.t) list;  (* newest first *)
  mutable dead : int list;
  mutable parity : int;
  mutable deaths : int;
  mutable links : int;
  mutable ciod_crashes : int;
}

let machine t = Cnk.Cluster.machine t.cluster
let sim t = Cnk.Cluster.sim t.cluster
let obs t = (machine t).Machine.obs

let alive t =
  List.filter
    (fun r -> not (List.mem r t.dead))
    (List.init (Machine.nodes (machine t)) Fun.id)

let publish t ev =
  t.log <- (Sim.now (sim t), ev) :: t.log;
  Machine.ras_emit (machine t) ~rank:(Fault_event.rank ev) (Machine.Fault ev);
  let total = t.parity + t.deaths + t.links + t.ciod_crashes in
  if total > 0 then
    Obs.set (obs t) ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Resilience.mtbf_cycles
      (Sim.now (sim t) / total)

let rec apply t ev =
  match ev with
  | Fault_event.L1_parity { rank; core } ->
    t.parity <- t.parity + 1;
    Obs.count (obs t) Metrics.Resilience.parity_injected;
    publish t ev;
    (* the error only bites a core that is actually running user code *)
    if Cnk.Node.inject_l1_parity_error (Cnk.Cluster.node t.cluster rank) ~core then
      Obs.count (obs t) Metrics.Resilience.parity_delivered
  | Fault_event.Node_death { rank } ->
    if not (List.mem rank t.dead) then begin
      t.deaths <- t.deaths + 1;
      t.dead <- rank :: t.dead;
      Obs.count (obs t) Metrics.Resilience.deaths_injected;
      (* publish first: an attached Recovery kills the spanning job on every
         member node inside this very cycle, so survivors never spin on a
         dead peer *)
      publish t ev;
      let node = Cnk.Cluster.node t.cluster rank in
      if Cnk.Node.job_active node then Cnk.Node.kill_job node
    end
  | Fault_event.Link_failure { rank; dir } ->
    let torus = (machine t).Machine.torus in
    if not (Bg_hw.Torus.link_broken torus ~rank ~dir) then begin
      t.links <- t.links + 1;
      Obs.count (obs t) Metrics.Resilience.links_broken;
      publish t ev;
      Bg_hw.Torus.set_link_broken torus ~rank ~dir true;
      if t.config.link_repair_after > 0 then
        ignore
          (Sim.schedule_in (sim t) t.config.link_repair_after (fun () ->
               apply t (Fault_event.Link_repair { rank; dir })))
    end
  | Fault_event.Link_repair { rank; dir } ->
    let torus = (machine t).Machine.torus in
    if Bg_hw.Torus.link_broken torus ~rank ~dir then begin
      Bg_hw.Torus.set_link_broken torus ~rank ~dir false;
      publish t ev
    end
  | Fault_event.Ciod_crash { io_node; fatal } ->
    let ciod = Cnk.Cluster.ciod t.cluster ~io_node in
    if Bg_cio.Ciod.alive ciod then begin
      t.ciod_crashes <- t.ciod_crashes + 1;
      Obs.count (obs t) Metrics.Resilience.ciod_crashes_injected;
      (* publish first, so a fatal crash gang-kills the pset before any
         retransmission timer wastes cycles re-driving a dead daemon *)
      publish t ev;
      Bg_cio.Ciod.crash ciod;
      if not fatal && t.config.ciod_restart_after > 0 then
        ignore
          (Sim.schedule_in (sim t) t.config.ciod_restart_after (fun () ->
               apply t (Fault_event.Ciod_restart { io_node })))
    end
  | Fault_event.Ciod_restart { io_node } ->
    let ciod = Cnk.Cluster.ciod t.cluster ~io_node in
    if not (Bg_cio.Ciod.alive ciod) then begin
      Bg_cio.Ciod.restart ciod;
      publish t ev
    end

let inject_now = apply

(* One self-rescheduling Poisson stream per fault class, each on its own
   named RNG stream so enabling one class never perturbs another. *)
let stream t name mean pick =
  if mean > 0. then begin
    let sim = sim t in
    let rng = Sim.rng sim ("resilience." ^ name) in
    let rec next () =
      let dt = max 1 (int_of_float (Rng.exponential rng ~mean)) in
      let at = Sim.now sim + dt in
      if at <= t.config.horizon then
        ignore
          (Sim.schedule_at sim at (fun () ->
               (match pick rng with Some ev -> apply t ev | None -> ());
               next ()))
    in
    next ()
  end

let choose rng = function
  | [] -> None
  | ranks -> Some (List.nth ranks (Rng.int rng (List.length ranks)))

let attach ?(config = default) cluster =
  let t =
    {
      cluster;
      config;
      log = [];
      dead = [];
      parity = 0;
      deaths = 0;
      links = 0;
      ciod_crashes = 0;
    }
  in
  let cores = (machine t).Machine.params.Bg_hw.Params.cores_per_node in
  let n = Machine.nodes (machine t) in
  stream t "parity" config.parity_mean (fun rng ->
      match choose rng (alive t) with
      | None -> None
      | Some rank -> Some (Fault_event.L1_parity { rank; core = Rng.int rng cores }));
  stream t "death" config.death_mean (fun rng ->
      (* never kill the last node: a machine with zero survivors has
         nothing left to reallocate onto *)
      match alive t with
      | [] | [ _ ] -> None
      | ranks -> (
        match choose rng ranks with
        | None -> None
        | Some rank -> Some (Fault_event.Node_death { rank })));
  stream t "link" config.link_mean (fun rng ->
      Some (Fault_event.Link_failure { rank = Rng.int rng n; dir = Rng.int rng 6 }));
  stream t "ciod" config.ciod_crash_mean (fun rng ->
      let io_node = Rng.int rng (Cnk.Cluster.io_node_count t.cluster) in
      Some
        (Fault_event.Ciod_crash { io_node; fatal = config.ciod_restart_after <= 0 }));
  t

let injected t = List.rev t.log
let dead_ranks t = List.sort compare t.dead
let parity_count t = t.parity
let death_count t = t.deaths
let link_count t = t.links
let ciod_crash_count t = t.ciod_crashes
