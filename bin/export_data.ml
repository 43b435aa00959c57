(* export_data — dump the figures' raw series as CSV, for plotting with
   gnuplot/matplotlib outside the simulator.

     dune exec bin/export_data.exe -- --out results
   writes:
     results/fig5_linux_fwq.csv     (iteration, cycles per core)
     results/fig6_cnk_fwq.csv
     results/fig8_bandwidth.csv     (bytes, contiguous MB/s, paged MB/s)
     results/table1_latency.csv
     results/noise_scaling.csv
     results/collectives.csv
     results/obs_metrics.csv       (instrumented CNK FWQ run)
     results/obs_trace.json        (Chrome trace-event of the same run)
     results/health_series.csv     (windowed health-service rollups)
     results/recovery_timeline.csv (self-healing policy decisions)
     results/sched_slo.csv         (per-tenant SLO bill, one row per
                                    tenant per scheduling policy) *)

open Cmdliner
module Noise = Bg_noise

let write_csv dir name header rows =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc (header ^ "\n");
  List.iter (fun row -> output_string oc (row ^ "\n")) rows;
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows)

let fwq_rows (r : Noise.Fwq_harness.report) =
  let threads = r.Noise.Fwq_harness.threads in
  let n =
    List.fold_left
      (fun acc t -> min acc (Array.length t.Noise.Fwq_harness.samples))
      max_int threads
  in
  List.init n (fun i ->
      string_of_int i
      ^ ","
      ^ String.concat ","
          (List.map (fun t -> string_of_int t.Noise.Fwq_harness.samples.(i)) threads))

let export_fwq dir samples =
  let cnk = Noise.Fwq_harness.run_on_cnk ~samples () in
  let fwk = Noise.Fwq_harness.run_on_fwk ~samples ~noise_seed:42L () in
  let header = "iteration,core0,core1,core2,core3" in
  write_csv dir "fig5_linux_fwq.csv" header (fwq_rows fwk);
  write_csv dir "fig6_cnk_fwq.csv" header (fwq_rows cnk)

let export_bandwidth dir =
  let measure ~bytes ~contiguous =
    let cluster = Cnk.Cluster.create ~dims:(4, 4, 4) () in
    Cnk.Cluster.boot_all cluster;
    let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
    let entry, collect =
      Bg_apps.Stencil.exchange_program ~fabric ~rank:0 ~bytes ~contiguous
    in
    List.iter
      (fun r -> ignore (Bg_msg.Dcmf.attach fabric ~rank:r))
      (0 :: Bg_apps.Stencil.neighbors_of (Cnk.Cluster.machine cluster) ~rank:0);
    Cnk.Cluster.run_job cluster ~ranks:[ 0 ]
      (Job.create ~name:"bw" (Image.executable ~name:"bw" entry));
    collect ()
  in
  let sizes = [ 512; 2048; 8192; 32_768; 131_072; 524_288; 2_097_152; 4_194_304 ] in
  write_csv dir "fig8_bandwidth.csv" "bytes,contiguous_mbps,paged_mbps"
    (List.map
       (fun bytes ->
         Printf.sprintf "%d,%.1f,%.1f" bytes
           (measure ~bytes ~contiguous:true)
           (measure ~bytes ~contiguous:false))
       sizes)

let export_scaling dir =
  let rows =
    List.map
      (fun nodes ->
        let f profile =
          Noise.Scaling.allreduce_slowdown ~nodes ~iterations:300 ~work_cycles:850_000
            ~profile ~seed:11L
        in
        Printf.sprintf "%d,%.5f,%.5f" nodes (f Noise.Scaling.Quiet)
          (f Noise.Scaling.Linux_daemons))
      [ 1; 4; 16; 64; 256; 1024; 4096; 16_384; 65_536 ]
  in
  write_csv dir "noise_scaling.csv" "nodes,cnk_slowdown,linux_slowdown" rows

let export_collectives dir =
  let cluster = Cnk.Cluster.create ~dims:(2, 2, 2) () in
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  for r = 0 to 7 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let coll = Bg_msg.Mpi.Coll.create fabric ~participants:8 in
  let rows =
    List.map
      (fun elements ->
        Printf.sprintf "%d,%.2f,%.2f" elements
          (Bg_engine.Cycles.to_us
             (Bg_msg.Mpi.Coll.estimate_vector_cycles coll Bg_msg.Mpi.Coll.Tree ~elements))
          (Bg_engine.Cycles.to_us
             (Bg_msg.Mpi.Coll.estimate_vector_cycles coll Bg_msg.Mpi.Coll.Torus ~elements)))
      [ 1; 8; 64; 512; 4096; 32_768; 262_144; 2_097_152 ]
  in
  write_csv dir "collectives.csv" "elements,tree_us,torus_us" rows

(* One instrumented CNK FWQ run: the syscall/cio/tlb/scheduler breakdown
   behind the figures, as both a metrics CSV and a Chrome trace. *)
let export_obs dir samples =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  let obs = Machine.obs (Cnk.Cluster.machine cluster) in
  Bg_obs.Obs.set_enabled obs true;
  Cnk.Cluster.boot_all cluster;
  let sched = Bg_control.Scheduler.create cluster in
  let entry, _ = Bg_apps.Fwq.program ~samples ~threads:4 () in
  ignore
    (Bg_control.Scheduler.submit sched ~shape:(1, 1, 1)
       (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry)));
  Bg_control.Scheduler.drain sched;
  let metrics = Filename.concat dir "obs_metrics.csv" in
  Bg_obs.Export.to_file ~path:metrics (Bg_obs.Export.metrics_csv obs);
  Printf.printf "wrote %s\n%!" metrics;
  let trace = Filename.concat dir "obs_trace.json" in
  Bg_obs.Export.to_file ~path:trace (Bg_obs.Export.chrome_trace obs);
  Printf.printf "wrote %s\n%!" trace

(* The same instrumented run through the machine health service: every
   windowed rollup point the sampler pushed, one row per point — the
   raw series behind a health dashboard. *)
let export_health dir samples =
  let module Ts = Bg_obs.Timeseries in
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  let machine = Cnk.Cluster.machine cluster in
  let h =
    match Machine.attach_health ~window:100_000 machine with
    | Ok h -> h
    | Error e -> failwith (Bg_obs.Health.rule_error_message e)
  in
  Cnk.Cluster.boot_all cluster;
  let sched = Bg_control.Scheduler.create cluster in
  let entry, _ = Bg_apps.Fwq.program ~samples ~threads:4 () in
  ignore
    (Bg_control.Scheduler.submit sched ~shape:(1, 1, 1)
       (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry)));
  Bg_control.Scheduler.drain sched;
  let ts = h.Machine.h_ts in
  let rows =
    List.concat_map
      (fun (id : Ts.id) ->
        let k = id.Ts.key in
        List.map
          (fun (p : Ts.point) ->
            Printf.sprintf "%s,%s,%d,%d,%s,%d,%d,%.17g" k.Bg_obs.Obs.subsystem
              k.Bg_obs.Obs.name k.Bg_obs.Obs.rank k.Bg_obs.Obs.core
              (Ts.kind_name id.Ts.kind) p.Ts.window p.Ts.at p.Ts.v)
          (Ts.points ts id))
      (Ts.ids ts)
  in
  write_csv dir "health_series.csv"
    "subsystem,name,rank,core,kind,window,at_cycle,value" rows

(* The self-healing control plane's decision timeline under a small
   chaos scenario: one checkpointing job, one node death, a spare in the
   pool — every policy decision as a (cycle, action) row, the series
   behind an MTTR/recovery storyboard. *)
let export_recovery_timeline dir =
  let module Ctl = Bg_control in
  let module Res = Bg_resilience in
  let module Sim = Bg_engine.Sim in
  let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) ~seed:1L () in
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  let sched = Ctl.Scheduler.create cluster in
  Ctl.Partition.set_spare (Ctl.Scheduler.partition sched) ~rank:3 true;
  let inj = Res.Injector.attach cluster in
  let policy = Res.Policy.attach sched in
  let spec =
    {
      Res.Ckpt.name = "export";
      steps = 30;
      step_cycles = 20_000;
      state_bytes = 4096;
      ckpt_every = 2;
      full_every = 1;
      strategy = Res.Ckpt.Parity_inplace;
    }
  in
  let factory, _ = Res.Ckpt.job_factory ~fabric spec in
  ignore
    (Ctl.Scheduler.submit_factory sched ~restart_limit:3 ~shape:(2, 1, 1) factory);
  ignore
    (Sim.schedule_at (Cnk.Cluster.sim cluster) 2_600_000 (fun () ->
         Res.Injector.inject_now inj (Res.Fault_event.Node_death { rank = 0 })));
  Ctl.Scheduler.drain sched;
  write_csv dir "recovery_timeline.csv" "cycle,action"
    (List.map
       (fun (cycle, line) -> Printf.sprintf "%d,%s" cycle line)
       (Res.Policy.timeline policy))

let export_sched_slo dir =
  let module W = Bg_sched.Workload in
  let module Svc = Bg_sched.Service in
  let module Strat = Bg_sched.Strategy in
  let module Slo = Bg_sched.Slo in
  (* one small seeded stream per policy; every tenant's SLO bill lands
     as CSV rows keyed (policy, seed, tenant) *)
  let rows_for kind =
    let cluster =
      Cnk.Cluster.create ~dims:(4, 4, 4) ~seed:1L ~nodes_per_io_node:8 ()
    in
    let machine = Cnk.Cluster.machine cluster in
    Bg_obs.Obs.set_enabled machine.Machine.obs true;
    Cnk.Cluster.boot_all cluster;
    let specs =
      W.generate ~seed:1L (W.mixed_tenants ~tenants:8 ~jobs_per_tenant:8)
    in
    let svc = Svc.create ~kind cluster specs in
    Svc.run svc;
    let strat = Svc.strategy svc in
    Slo.csv_rows
      (Slo.collect machine.Machine.obs ~tenants:(Svc.tenants_of specs)
         ~policy:(Strat.kind_name kind) ~seed:1 ~total_nodes:64
         ~makespan:(Svc.makespan svc) ~backfilled:(Strat.backfilled strat)
         ~gangs_started:(Strat.gangs_started strat) ())
  in
  write_csv dir "sched_slo.csv" Slo.csv_header
    (List.concat_map rows_for Strat.all_kinds)

let export_table1 dir =
  (* static decomposition straight from the calibration constants *)
  let rows =
    [
      Printf.sprintf "DCMF Put,0.9,%d" Bg_msg.Msg_params.put_sw;
      Printf.sprintf "DCMF Get,1.6,%d" Bg_msg.Msg_params.get_request_sw;
      Printf.sprintf "DCMF Eager One-way,1.6,%d" Bg_msg.Msg_params.eager_send_sw;
      Printf.sprintf "ARMCI blocking Put,2.0,%d" Bg_msg.Msg_params.armci_put_overhead;
      Printf.sprintf "MPI Eager One-way,2.4,%d" Bg_msg.Msg_params.mpi_send_overhead;
      Printf.sprintf "ARMCI blocking Get,3.3,%d" Bg_msg.Msg_params.armci_get_overhead;
      Printf.sprintf "MPI Rendezvous One-way,5.6,%d" Bg_msg.Msg_params.rndv_rts_sw;
    ]
  in
  write_csv dir "table1_latency.csv" "protocol,paper_us,sw_overhead_cycles" rows

let run out samples =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  export_fwq out samples;
  export_bandwidth out;
  export_scaling out;
  export_collectives out;
  export_table1 out;
  export_obs out (min samples 2_000);
  export_health out (min samples 2_000);
  export_recovery_timeline out;
  export_sched_slo out;
  Printf.printf "all series exported to %s/\n" out

let cmd =
  let out = Arg.(value & opt string "results" & info [ "out"; "o" ] ~doc:"Output directory.") in
  let samples = Arg.(value & opt int 12_000 & info [ "samples" ] ~doc:"FWQ samples.") in
  Cmd.v
    (Cmd.info "export_data" ~doc:"Export figure series as CSV")
    Term.(const run $ out $ samples)

let () = exit (Cmd.eval cmd)
