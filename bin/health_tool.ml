(* health_tool — drive the machine health service through a seeded chaos
   scenario and show what an operator would see (paper §VI: the control
   system's RAS database and the queries that find sick hardware).

     dune exec bin/health_tool.exe -- --seed 1 --postmortem /tmp/pm.json

   The scenario: a 4-node machine (two psets) runs per-rank I/O jobs
   over the reliable function-ship transport while the collective tree
   drops 20% of frames; mid-run, the I/O daemon of pset 1 suffers a
   fatal crash. The health service samples windowed rollups of every
   metric, alert rules watch the retransmit rate per node, and the
   flight recorder captures a postmortem bundle when the fatal fault
   lands in the RAS database.

   The tool asserts the paper-level claims — at least one alert fired,
   the postmortem is RFC 8259-valid JSON naming the failing io_node and
   the implicated series — and prints digest lines that two same-seed
   runs must reproduce bit-identically (`make health-smoke`). *)

open Cmdliner
module Obs = Bg_obs.Obs
module Ts = Bg_obs.Timeseries
module Rasdb = Bg_obs.Rasdb
module Health = Bg_obs.Health
module Export = Bg_obs.Export
module Res = Bg_resilience
module Net = Bg_hw.Collective_net
module Fnv = Bg_engine.Fnv
module Sim = Bg_engine.Sim

let ranks = 4
let chunk_bytes = 2048
let chunks = 8
let window = 100_000
let crash_cycle = 2_600_000
let crashed_io_node = 1

let workload () =
  let rank = Bg_rt.Libc.rank () in
  let fd =
    Bg_rt.Libc.openf
      ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true; trunc = true }
      (Printf.sprintf "/health-rank-%02d.dat" rank)
  in
  for chunk = 0 to chunks - 1 do
    let payload = Bytes.make chunk_bytes (Char.chr (97 + ((rank + chunk) mod 26))) in
    if Bg_rt.Libc.write fd payload <> chunk_bytes then
      failwith "health_tool: short write";
    Bg_rt.Libc.fsync fd
  done;
  Bg_rt.Libc.close fd

(* [Machine.attach_health] checks them against the metric schema, so a
   misspelt series fails there instead of never firing. *)
let rules =
  List.map
    (fun s ->
      match Health.parse_rule s with
      | Ok r -> r
      | Error e -> failwith ("health_tool: bad rule: " ^ e))
    [
      (* Per-node retransmit rate (events per million cycles): the
         operator's "which pset is sick". *)
      "retransmit_rate: cio.retransmits rate >= 10 warn";
      (* Any error on the RAS stream trips the machine-level pager. *)
      "ras_errors: ras.error value >= 1 error";
      (* Quiet on this scenario; present so the heat table shows the
         whole rule set, firing or not. *)
      "dma_stall: dma.inject_stalls value > 0 warn";
      "span_loss: obs.dropped_spans delta > 0 info";
    ]

let run seed postmortem_path quiet =
  let cluster =
    Cnk.Cluster.create ~seed ~dims:(2, 2, 1) ~nodes_per_io_node:2
      ~cio:Bg_cio.Reliable.default_on ()
  in
  let machine = Cnk.Cluster.machine cluster in
  Obs.set_enabled (Machine.obs machine) true;
  Bg_obs.Causal.set_enabled (Machine.causal machine) true;
  Cnk.Cluster.boot_all cluster;
  Net.set_fault_config machine.Machine.collective
    { Net.drop_rate = 0.2; corrupt_rate = 0.02; dup_rate = 0.05; jitter_max = 200 };
  let sched = Bg_control.Scheduler.create cluster in
  let recovery = Res.Recovery.attach sched in
  (* Attach the health service after Recovery: machine RAS subscribers
     run newest-first, so the database records a fatal fault (and the
     flight recorder captures its bundle) before Recovery's escalation
     floods the stream with the gang-kill's own events. *)
  let h =
    match
      Machine.attach_health ~window
        ~recorder:{ Health.default_recorder with Health.max_reports = 12 }
        ~rules machine
    with
    | Ok h -> h
    | Error e -> failwith ("health_tool: " ^ Health.rule_error_message e)
  in
  let injector = Res.Injector.attach cluster in
  ignore
    (Sim.schedule_in (Cnk.Cluster.sim cluster) crash_cycle (fun () ->
         Res.Injector.inject_now injector
           (Res.Fault_event.Ciod_crash { io_node = crashed_io_node; fatal = true })));
  for _ = 1 to 2 do
    ignore
      (Bg_control.Scheduler.submit_factory sched ~restart_limit:2 ~shape:(2, 1, 1)
         (fun ~ranks:_ ->
           Job.create ~name:"health-io"
             (Image.executable ~name:"health-io" workload)))
  done;
  Bg_control.Scheduler.drain sched;

  let obs = Machine.obs machine in
  let db = h.Machine.h_db and ts = h.Machine.h_ts and svc = h.Machine.h_svc in
  let counter rank name =
    Obs.counter_value obs ~rank ~subsystem:"cio" ~name ()
  in
  if not quiet then begin
    Printf.printf "machine health — seed %Ld, %d windows of %d cycles\n\n"
      seed (Ts.windows_sampled ts) window;
    (* Per-node heat table: the counters an operator scans first. *)
    Printf.printf "%4s %12s %6s %10s %10s %8s\n" "rank" "ship_reqs" "eio"
      "retransmit" "ras_evts" "alerts";
    for rank = 0 to ranks - 1 do
      let alerts_here =
        List.length (List.filter (fun (a : Health.alert) -> a.Health.rank = rank)
                       (Health.alerts svc))
      in
      Printf.printf "%4d %12d %6d %10d %10d %8d\n" rank
        (counter rank "ship_requests") (counter rank "eio")
        (counter rank "retransmits")
        (Rasdb.rank_count db rank)
        alerts_here
    done;
    Printf.printf "\nras database: %d records (%d info / %d warn / %d error), \
                   components:" (Rasdb.count db)
      (Rasdb.severity_count db Rasdb.Info)
      (Rasdb.severity_count db Rasdb.Warn)
      (Rasdb.severity_count db Rasdb.Error);
    List.iter
      (fun c -> Printf.printf " %s=%d" c (Rasdb.component_count db c))
      (Rasdb.components db);
    print_newline ();
    Printf.printf "error rate in the last 10 windows: %d\n"
      (Rasdb.rate db ~severity:Rasdb.Error ~window:(10 * window)
         ~now:(Sim.now (Cnk.Cluster.sim cluster)) ());
    Printf.printf "\nalert log (%d fired):\n" (Health.alert_count svc);
    List.iter
      (fun (a : Health.alert) ->
        Printf.printf "  [w%03d @%10d] %-5s %-18s %s rank=%d value=%.1f thr=%.1f\n"
          a.Health.window a.Health.at
          (Rasdb.severity_name a.Health.severity)
          a.Health.rule a.Health.series a.Health.rank a.Health.value
          a.Health.threshold)
      (Health.alerts svc);
    Printf.printf "\nflight recorder: %d bundle(s), %d suppressed\n"
      (List.length (Health.reports svc))
      (Health.captures_suppressed svc);
    List.iter
      (fun (label, json) ->
        Printf.printf "  %-24s %d bytes\n" label (String.length json))
      (Health.reports svc)
  end;

  (* --- acceptance claims ------------------------------------------- *)
  if Health.alert_count svc = 0 then
    failwith "health_tool: chaos scenario fired no alerts";
  if Res.Recovery.alerts_seen recovery = 0 then
    failwith "health_tool: Recovery consumed no HEALTH alert events";
  let label, bundle =
    match
      List.find_opt (fun (l, _) -> l = "fault:ciod_crash") (Health.reports svc)
    with
    | Some r -> r
    | None -> failwith "health_tool: no postmortem captured for the ciod crash"
  in
  (* Dump before asserting: a failing run still leaves the bundle on
     disk for inspection. *)
  (match postmortem_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc bundle;
    close_out oc;
    Printf.printf "\nwrote %s (%s, %d bytes)\n" path label (String.length bundle));
  (match Export.validate_json bundle with
  | Ok () -> ()
  | Error e -> failwith ("health_tool: postmortem is not valid JSON: " ^ e));
  let contains sub =
    let n = String.length sub and m = String.length bundle in
    let rec at i = i + n <= m && (String.sub bundle i n = sub || at (i + 1)) in
    at 0
  in
  if not (contains (Printf.sprintf "io=%d" crashed_io_node)) then
    failwith "health_tool: postmortem does not name the failing io_node";
  if not (contains "\"subsystem\":\"cio\"" && contains "\"retransmits\"") then
    failwith "health_tool: postmortem lacks the implicated cio series";

  (* Digest lines: two same-seed runs must reproduce these exactly. *)
  Printf.printf "health digest: %s\n" (Fnv.to_hex (Health.digest svc));
  Printf.printf "sim digest: %s\n"
    (Fnv.to_hex
       (Bg_engine.Trace.digest (Bg_engine.Sim.trace (Cnk.Cluster.sim cluster))));
  Printf.printf "health_tool OK\n"

let cmd =
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Scenario seed.") in
  let postmortem =
    Arg.(
      value
      & opt (some string) None
      & info [ "postmortem" ] ~doc:"Write the ciod-crash postmortem bundle here.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the digest lines.")
  in
  Cmd.v
    (Cmd.info "health_tool"
       ~doc:
         "Seeded chaos scenario through the machine health service: per-node \
          heat table, alert log, and a deterministic postmortem bundle")
    Term.(const run $ seed $ postmortem $ quiet)

let () = exit (Cmd.eval cmd)
