(* heal_tool — drive the self-healing control plane through a compound
   fault campaign and prove closed-loop recovery (paper §V.B, §VI).

     dune exec bin/heal_tool.exe -- --seed 1

   A loaded queue (dozens of checkpointing batch jobs plus backfill
   filler) runs on an 8-node machine with two spare nodes held in
   reserve, a reliable function-ship transport, the machine health
   service, and a {!Bg_resilience.Policy} engine closing the loop from
   RAS/HEALTH events back to the scheduler. Two scripted fault bursts
   land node deaths, link severs and fatal CIOD crashes in the same
   window; the policy substitutes spares, restarts daemons within
   budget, drains and rebuilds the pset that blows its budget, walks the
   machine Healthy -> Degraded -> Critical and back, and paces every job
   retry with deterministic backoff.

   The tool asserts the end state: every batch job completes with final
   state byte-identical to a fault-free twin run (and to the host-side
   mirror), at least one restart resumed from a committed checkpoint
   (strictly fewer steps replayed than a scratch restart), a submit
   offered while Critical is refused while a later one is accepted, and
   spares/drain/rebuild all actually fired. It reports MTTR p50/p99 and
   checkpoint-restart savings, and prints digest lines (policy decision
   timeline, sim trace, scheduler state) that `make heal-smoke` compares
   across two same-seed runs. *)

open Cmdliner
module Obs = Bg_obs.Obs
module Health = Bg_obs.Health
module Res = Bg_resilience
module Ctl = Bg_control
module Fnv = Bg_engine.Fnv
module Sim = Bg_engine.Sim

let dims = (4, 2, 1) (* 8 nodes; two psets of 4 *)
let spares = [ 6; 7 ]
let batch_jobs = 20
let filler_jobs = 4
let step_cycles = 40_000

(* Job lengths are staggered (16..28 compute steps) so launch waves
   desynchronize: image load alone gates thread start by ~2.1M cycles,
   and identical jobs would keep every wave in the same phase — a burst
   could only ever land mid-load, where there is nothing to restore. *)
let steps_of i = 16 + (i mod 7 * 2)
let burst1 = 3_000_000
let burst2 = 7_500_000

let policy_config =
  {
    Res.Policy.retry_backoff_base = 20_000;
    retry_backoff_mult = 2;
    retry_backoff_cap = 160_000;
    spare_substitution = true;
    ciod_restart_budget = 2;
    ciod_restart_backoff = 30_000;
    ciod_crash_window = 2_000_000;
    pset_rebuild_after = 400_000;
    degraded_after = 3;
    critical_after = 5;
    recovery_cooldown = 1_000_000;
    shape_cap_degraded = Some (1, 1, 1);
  }

let spec ~name ~steps =
  {
    Res.Ckpt.name;
    steps;
    step_cycles;
    state_bytes = 8 * 1024;
    ckpt_every = 5;
    full_every = 2;
    strategy = Res.Ckpt.Parity_inplace;
  }

type batch = {
  jid : Ctl.Scheduler.job_id;
  spec : Res.Ckpt.spec;
  shape : int * int * int;
  collect : unit -> Res.Ckpt.outcome list;
}

type report = {
  makespan : int;
  completed : (int * string) list; (* (jid, state-digest hex) per batch job *)
  restarts_total : int;
  restored_steps : int; (* steps recovered from committed checkpoints *)
  scratch_steps : int; (* steps a scratch restart would have replayed *)
  mttr_p50 : float;
  mttr_p99 : float;
  substitutions : int;
  ciod_restarts : int;
  drains : int;
  rebuilds : int;
  shed : int;
  rejected : int;
  transitions : int;
  alerts : int;
  offer_refused : bool;
  offer_accepted : bool;
  timeline : (int * string) list;
  policy_digest : string;
  sim_digest : string;
  sched_digest : string;
}

(* The alert rule Recovery listens for; [Machine.attach_health] checks
   it against the metric schema, so a misspelt series fails there
   instead of never firing. *)
let rules =
  List.map
    (fun s -> match Health.parse_rule s with Ok r -> r | Error e -> failwith e)
    [ "node_deaths: resilience.deaths_handled delta >= 1 warn" ]

let scenario ~seed ~faults =
  let cluster =
    Cnk.Cluster.create ~dims ~seed ~nodes_per_io_node:4
      ~cio:Bg_cio.Reliable.default_on ()
  in
  let machine = Cnk.Cluster.machine cluster in
  let sim = Cnk.Cluster.sim cluster in
  let obs = Machine.obs machine in
  Obs.set_enabled obs true;
  (match Machine.attach_health ~rules machine with
  | Ok _ -> ()
  | Error e -> failwith ("heal_tool: " ^ Health.rule_error_message e));
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric machine in
  let sched = Ctl.Scheduler.create ~backfill:true cluster in
  List.iter
    (fun rank -> Ctl.Partition.set_spare (Ctl.Scheduler.partition sched) ~rank true)
    spares;
  let inj = Res.Injector.attach cluster in
  let policy = Res.Policy.attach ~config:policy_config sched in
  (* the loaded queue: checkpointing batch jobs in two shapes... *)
  let batches =
    List.init batch_jobs (fun i ->
        let shape = if i mod 3 = 0 then (2, 1, 1) else (1, 1, 1) in
        let spec = spec ~name:(Printf.sprintf "heal%02d" i) ~steps:(steps_of i) in
        let factory, collect = Res.Ckpt.job_factory ~fabric spec in
        let jid = Ctl.Scheduler.submit_factory sched ~restart_limit:4 ~shape factory in
        { jid; spec; shape; collect })
  in
  (* ...plus opportunistic backfill filler, first to go when degraded *)
  let filler_ids =
    List.init filler_jobs (fun i ->
        Ctl.Scheduler.submit_factory sched ~cls:Ctl.Scheduler.Backfill_class
          ~shape:(1, 1, 1) (fun ~ranks:_ ->
            Job.create
              ~name:(Printf.sprintf "filler%d" i)
              (Image.executable
                 ~name:(Printf.sprintf "filler%d" i)
                 (fun () -> Coro.consume (20 * step_cycles)))))
  in
  (* the compound-fault campaign: two bursts of correlated faults *)
  if faults then begin
    let at cycle f = ignore (Sim.schedule_at sim cycle f) in
    let inject e = Res.Injector.inject_now inj e in
    at burst1 (fun () ->
        inject (Res.Fault_event.Node_death { rank = 1 });
        inject (Res.Fault_event.Link_failure { rank = 0; dir = 0 });
        inject (Res.Fault_event.Ciod_crash { io_node = 0; fatal = true }));
    at burst2 (fun () ->
        inject (Res.Fault_event.Node_death { rank = 5 });
        inject (Res.Fault_event.Link_failure { rank = 4; dir = 1 });
        inject (Res.Fault_event.Ciod_crash { io_node = 1; fatal = true }));
    at (burst2 + 120_000) (fun () ->
        inject (Res.Fault_event.Ciod_crash { io_node = 1; fatal = true }));
    at (burst2 + 240_000) (fun () ->
        (* third fatal inside the window blows the restart budget *)
        inject (Res.Fault_event.Ciod_crash { io_node = 1; fatal = true }))
  end;
  (* admission control probes: one submit offered while the burst should
     have the machine Critical, one after it has recovered *)
  let offer_refused = ref false and offer_accepted = ref false in
  let late_spec = spec ~name:"heal_late" ~steps:16 in
  let late = ref None in
  if faults then begin
    ignore
      (Sim.schedule_at sim
         (burst2 + 300_000)
         (fun () ->
           match
             Ctl.Scheduler.offer_factory sched ~shape:(1, 1, 1) (fun ~ranks:_ ->
                 Job.create ~name:"refused" (Image.executable ~name:"refused" ignore))
           with
           | Error `Admission_closed -> offer_refused := true
           | Ok _ -> ()));
    ignore
      (Sim.schedule_at sim
         (burst2 + 2_500_000)
         (fun () ->
           let factory, collect = Res.Ckpt.job_factory ~fabric late_spec in
           match
             Ctl.Scheduler.offer_factory sched ~restart_limit:2 ~shape:(1, 1, 1) factory
           with
           | Ok jid -> (
             offer_accepted := true;
             late := Some (jid, collect))
           | Error `Admission_closed -> ()))
  end;
  Ctl.Scheduler.drain sched;
  (* every batch job must have completed, with state matching the
     host-side mirror — recovery that loses or corrupts work shows up
     right here as a digest split or a Failed state *)
  let completed =
    List.map
      (fun b ->
        (match Ctl.Scheduler.state sched b.jid with
        | Ctl.Scheduler.Completed _ -> ()
        | _ -> failwith (Printf.sprintf "heal_tool: job %d did not complete" b.jid));
        let outcomes = b.collect () in
        let sx, sy, sz = b.shape in
        if List.length outcomes <> sx * sy * sz then
          failwith (Printf.sprintf "heal_tool: job %d outcome count" b.jid);
        List.iter
          (fun o ->
            if
              not
                (Fnv.equal o.Res.Ckpt.state_digest
                   (Res.Ckpt.expected_digest b.spec
                      ~rank_index:o.Res.Ckpt.rank_index))
            then
              failwith
                (Printf.sprintf
                   "heal_tool: job %d rank %d state diverged (final_step=%d \
                    restored=%d restarts=%d machine_rank=%d)"
                   b.jid o.Res.Ckpt.rank_index o.Res.Ckpt.final_step
                   o.Res.Ckpt.restored_step
                   (Ctl.Scheduler.restarts sched b.jid)
                   o.Res.Ckpt.machine_rank))
          outcomes;
        let digest =
          List.fold_left
            (fun acc o -> Fnv.add_int64 acc o.Res.Ckpt.state_digest)
            Fnv.empty outcomes
        in
        (b.jid, Fnv.to_hex digest))
      batches
  in
  (match !late with
  | None -> ()
  | Some (jid, collect) -> (
    (match Ctl.Scheduler.state sched jid with
    | Ctl.Scheduler.Completed _ -> ()
    | _ -> failwith "heal_tool: late-admitted job did not complete");
    match collect () with
    | [ o ]
      when Fnv.equal o.Res.Ckpt.state_digest
             (Res.Ckpt.expected_digest late_spec ~rank_index:0) ->
      ()
    | _ -> failwith "heal_tool: late-admitted job state diverged"));
  let restarts_total =
    List.fold_left (fun acc b -> acc + Ctl.Scheduler.restarts sched b.jid) 0 batches
  in
  let restored_steps, scratch_steps =
    List.fold_left
      (fun (got, scratch) b ->
        if Ctl.Scheduler.restarts sched b.jid = 0 then (got, scratch)
        else
          List.fold_left
            (fun (g, s) o -> (g + o.Res.Ckpt.restored_step, s + b.spec.Res.Ckpt.steps))
            (got, scratch) (b.collect ()))
      (0, 0) batches
  in
  let mttr_p50, mttr_p99 =
    match
      Obs.timer_histogram obs ~subsystem:"scheduler" ~name:"recovery_latency_cycles" ()
    with
    | None -> (0., 0.)
    | Some h ->
      ( Bg_engine.Stats.Histogram.percentile h 0.5,
        Bg_engine.Stats.Histogram.percentile h 0.99 )
  in
  let sched_digest =
    let b = Buffer.create 1024 in
    Ctl.Scheduler.capture sched b;
    Fnv.to_hex (Fnv.add_bytes Fnv.empty (Buffer.to_bytes b))
  in
  ignore filler_ids;
  {
    makespan = Sim.now sim;
    completed;
    restarts_total;
    restored_steps;
    scratch_steps;
    mttr_p50;
    mttr_p99;
    substitutions = Res.Recovery.substitutions (Res.Policy.recovery policy);
    ciod_restarts = Res.Policy.ciod_restarts policy;
    drains = Res.Policy.psets_drained policy;
    rebuilds = Res.Policy.psets_rebuilt policy;
    shed = Res.Policy.jobs_shed policy;
    rejected = Ctl.Scheduler.rejected_count sched;
    transitions = Res.Policy.transitions policy;
    alerts = Res.Recovery.alerts_seen (Res.Policy.recovery policy);
    offer_refused = !offer_refused;
    offer_accepted = !offer_accepted;
    timeline = Res.Policy.timeline policy;
    policy_digest = Fnv.to_hex (Res.Policy.timeline_digest policy);
    sim_digest = Fnv.to_hex (Bg_engine.Trace.digest (Sim.trace sim));
    sched_digest;
  }

let require cond msg = if not cond then failwith ("heal_tool: " ^ msg)

let run seed timeline_csv quiet =
  let chaos = scenario ~seed ~faults:true in
  let calm = scenario ~seed ~faults:false in
  (* the acceptance claim: recovery is invisible in the application's
     output — chaos-run state digests match the fault-free twin job for
     job (and both match the host mirror, checked inside scenario) *)
  List.iter2
    (fun (jid, d) (jid', d') ->
      require (jid = jid' && d = d') (Printf.sprintf "job %d diverged from twin" jid))
    chaos.completed calm.completed;
  require (calm.restarts_total = 0) "fault-free twin restarted a job";
  require (chaos.restarts_total > 0) "no job ever restarted";
  require (chaos.restored_steps > 0) "no restart resumed from a checkpoint";
  require
    (chaos.restored_steps < chaos.scratch_steps)
    "checkpoint restart replayed as much as scratch";
  require (chaos.substitutions = 2) "expected both spares spent";
  require (chaos.ciod_restarts >= 2) "CIOD restart budget never used";
  require (chaos.drains = 1) "the over-budget pset was not drained";
  require (chaos.rebuilds = 1) "the drained pset was not rebuilt";
  require (chaos.shed > 0) "no backfill shed on degradation";
  require chaos.offer_refused "submit during Critical was not refused";
  require chaos.offer_accepted "submit after recovery was not accepted";
  require (chaos.rejected >= 1) "rejected_count did not record the refusal";
  require (chaos.alerts > 0) "health alert never reached the policy";
  require (chaos.transitions >= 4) "health state never walked the tiers";
  if not quiet then begin
    Printf.printf "chaos: makespan=%d restarts=%d mttr_p50=%.0f mttr_p99=%.0f\n"
      chaos.makespan chaos.restarts_total chaos.mttr_p50 chaos.mttr_p99;
    Printf.printf
      "chaos: restored_steps=%d scratch_steps=%d saved=%d substitutions=%d\n"
      chaos.restored_steps chaos.scratch_steps
      (chaos.scratch_steps - chaos.restored_steps)
      chaos.substitutions;
    Printf.printf
      "chaos: ciod_restarts=%d drains=%d rebuilds=%d shed=%d rejected=%d \
       transitions=%d alerts=%d\n"
      chaos.ciod_restarts chaos.drains chaos.rebuilds chaos.shed chaos.rejected
      chaos.transitions chaos.alerts;
    Printf.printf "calm:  makespan=%d (fault-free twin)\n" calm.makespan;
    List.iter
      (fun (cycle, line) -> Printf.printf "  [%d] %s\n" cycle line)
      chaos.timeline
  end;
  (match timeline_csv with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "cycle,action\n";
    List.iter
      (fun (cycle, line) -> Printf.fprintf oc "%d,%s\n" cycle line)
      chaos.timeline;
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n%!" path (List.length chaos.timeline));
  Printf.printf "policy digest: %s\n" chaos.policy_digest;
  Printf.printf "sim digest: %s %s\n" chaos.sim_digest calm.sim_digest;
  Printf.printf "sched digest: %s %s\n" chaos.sched_digest calm.sched_digest;
  let combined =
    List.fold_left
      (fun acc s -> Fnv.add_string acc s)
      Fnv.empty
      [
        chaos.policy_digest;
        chaos.sim_digest;
        calm.sim_digest;
        chaos.sched_digest;
        calm.sched_digest;
      ]
  in
  Printf.printf "combined digest: %s\n" (Fnv.to_hex combined)

let cmd =
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Simulation seed.") in
  let timeline_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline-csv" ] ~doc:"Write the policy decision timeline as CSV.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the digest lines.")
  in
  Cmd.v
    (Cmd.info "heal_tool"
       ~doc:"Chaos-test the self-healing control plane under compound faults")
    Term.(const run $ seed $ timeline_csv $ quiet)

let () = exit (Cmd.eval cmd)
