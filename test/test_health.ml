(* Tests for the machine health service: windowed time-series rollups,
   the queryable RAS database, alert rules, and the flight recorder —
   plus the invariant everything hangs on: attaching the service must
   not perturb the simulated machine (paper §VI: RAS without jitter). *)

open Bg_engine
open Bg_kabi
module Obs = Bg_obs.Obs
module Ts = Bg_obs.Timeseries
module Rasdb = Bg_obs.Rasdb
module Health = Bg_obs.Health
module Export = Bg_obs.Export
module Res = Bg_resilience

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time-series rollups *)

let test_rollup_kinds () =
  let o = Obs.create ~enabled:true () in
  let ts = Ts.create ~window:100 o in
  (* window 0: one counter bump, a gauge, one timer sample *)
  Obs.incr o ~subsystem:"s" ~name:"c" ~by:3 ();
  Obs.set_gauge o ~subsystem:"s" ~name:"g" 11;
  Obs.observe_cycles o ~subsystem:"s" ~name:"t" ~hi:64.0 ~bins:64 42;
  Ts.sample ts ~now:100;
  (* window 1: counter +5, gauge moves, no timer samples *)
  Obs.incr o ~subsystem:"s" ~name:"c" ~by:5 ();
  Obs.set_gauge o ~subsystem:"s" ~name:"g" 7;
  Ts.sample ts ~now:200;
  let point key kind =
    match Ts.points ts { Ts.key; kind } with
    | ps -> ps
  in
  let k name = { Obs.subsystem = "s"; name; rank = Obs.node_scope; core = Obs.node_scope } in
  (match point (k "c") Ts.Delta with
  | [ p0; p1 ] ->
    check_float "window 0 delta" 3.0 p0.Ts.v;
    check_float "window 1 delta" 5.0 p1.Ts.v;
    check_int "window index advances" 1 p1.Ts.window;
    check_int "cycle stamp is the window edge" 200 p1.Ts.at
  | ps -> Alcotest.fail (Printf.sprintf "expected 2 delta points, got %d" (List.length ps)));
  (match point (k "g") Ts.Level with
  | [ p0; p1 ] ->
    check_float "window 0 level" 11.0 p0.Ts.v;
    check_float "window 1 level" 7.0 p1.Ts.v
  | ps -> Alcotest.fail (Printf.sprintf "expected 2 level points, got %d" (List.length ps)));
  (* p50/p99 over only the window's samples: the single 42-cycle sample
     lands in bin [42, 43) of the 1-cycle-wide histogram *)
  (match point (k "t") Ts.P50 with
  | [ p0; p1 ] ->
    check_bool "windowed p50 in the answering bin" true (p0.Ts.v >= 42.0 && p0.Ts.v <= 43.0);
    check_float "empty window rolls up to 0" 0.0 p1.Ts.v
  | ps -> Alcotest.fail (Printf.sprintf "expected 2 p50 points, got %d" (List.length ps)));
  (match point (k "t") Ts.P99 with
  | p0 :: _ -> check_bool "windowed p99 too" true (p0.Ts.v >= 42.0 && p0.Ts.v <= 43.0)
  | [] -> Alcotest.fail "no p99 points");
  check_int "two windows sampled" 2 (Ts.windows_sampled ts)

let test_ring_bound_and_drops () =
  let o = Obs.create ~enabled:true () in
  let ts = Ts.create ~window:10 ~capacity:4 o in
  for w = 1 to 10 do
    Obs.incr o ~subsystem:"s" ~name:"c" ();
    Ts.sample ts ~now:(w * 10)
  done;
  let id = { Ts.key = { Obs.subsystem = "s"; name = "c"; rank = Obs.node_scope; core = Obs.node_scope };
             kind = Ts.Delta } in
  let ps = Ts.points ts id in
  check_int "ring bounded" 4 (List.length ps);
  check_int "overwrites counted" 6 (Ts.dropped_points ts);
  (match ps with
  | first :: _ -> check_int "oldest survivor is window 6" 6 first.Ts.window
  | [] -> Alcotest.fail "no points");
  check_float "sum_last over the ring" 4.0 (Ts.sum_last ts id 4);
  (match Ts.latest ts id with
  | Some p -> check_int "latest is window 9" 9 p.Ts.window
  | None -> Alcotest.fail "no latest point")

let test_max_series_bound () =
  let o = Obs.create ~enabled:true () in
  let ts = Ts.create ~window:10 ~max_series:3 o in
  for i = 0 to 9 do
    Obs.incr o ~subsystem:"s" ~name:(Printf.sprintf "c%d" i) ()
  done;
  Ts.sample ts ~now:10;
  check_int "series capped" 3 (List.length (Ts.ids ts));
  check_int "excess series counted" 7 (Ts.dropped_series ts)

let test_timeseries_digest_deterministic () =
  let run bump =
    let o = Obs.create ~enabled:true () in
    let ts = Ts.create ~window:10 o in
    for w = 1 to 5 do
      Obs.incr o ~subsystem:"s" ~name:"c" ~by:bump ();
      Ts.sample ts ~now:(w * 10)
    done;
    Ts.digest ts
  in
  check_bool "same inputs, same digest" true (Fnv.equal (run 2) (run 2));
  check_bool "different values, different digest" false (Fnv.equal (run 2) (run 3))

(* ------------------------------------------------------------------ *)
(* The RAS database *)

let test_rasdb_queries () =
  let db = Rasdb.create ~capacity:4 () in
  let add cycle rank severity component message =
    ignore (Rasdb.add db ~cycle ~rank ~severity ~component ~message)
  in
  add 10 0 Rasdb.Info "kernel" "boot ok";
  add 20 1 Rasdb.Warn "parity" "FAULT parity rank=1 core=0";
  add 30 1 Rasdb.Error "ciod_crash" "FAULT ciod_crash io=0 fatal=1";
  add 40 2 Rasdb.Info "kernel" "boot ok";
  add 50 2 Rasdb.Error "kernel" "tid 3 crashed: oops";
  add 60 0 Rasdb.Info "kernel" "boot ok";
  check_int "count keeps evicted records" 6 (Rasdb.count db);
  check_int "ring retains capacity" 4 (Rasdb.retained db);
  check_int "evictions counted" 2 (Rasdb.dropped db);
  check_int "severity counts survive eviction" 3 (Rasdb.severity_count db Rasdb.Info);
  check_int "warn count" 1 (Rasdb.severity_count db Rasdb.Warn);
  check_int "error count" 2 (Rasdb.severity_count db Rasdb.Error);
  check_int "component index: parity" 1 (Rasdb.component_count db "parity");
  check_int "component index: ciod_crash" 1 (Rasdb.component_count db "ciod_crash");
  check_int "component index: kernel" 4 (Rasdb.component_count db "kernel");
  check_int "rank index survives eviction" 2 (Rasdb.rank_count db 0);
  Alcotest.(check (list string)) "components sorted" [ "ciod_crash"; "kernel"; "parity" ]
    (Rasdb.components db);
  (* filters compose, over retained records only, oldest first *)
  (match Rasdb.records db ~severity:Rasdb.Error ~rank:2 () with
  | [ r ] -> check_int "filtered record" 50 r.Rasdb.cycle
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l)));
  check_int "since filter" 2 (List.length (Rasdb.records db ~since:50 ()));
  (match Rasdb.tail db 2 with
  | [ a; b ] ->
    check_int "tail oldest first" 50 a.Rasdb.cycle;
    check_int "tail newest last" 60 b.Rasdb.cycle
  | l -> Alcotest.fail (Printf.sprintf "expected tail of 2, got %d" (List.length l)));
  (* rate window is (now - window, now]: cycle 30 is out at now=60, w=30 *)
  check_int "rate half-open window" 3 (Rasdb.rate db ~window:30 ~now:60 ());
  check_int "rate severity filter" 1
    (Rasdb.rate db ~severity:Rasdb.Error ~window:30 ~now:60 ())

let test_rasdb_gauges () =
  let o = Obs.create ~enabled:true () in
  let db = Rasdb.create () in
  ignore (Rasdb.add db ~cycle:1 ~rank:0 ~severity:Rasdb.Error ~component:"kernel" ~message:"x");
  ignore (Rasdb.add db ~cycle:2 ~rank:0 ~severity:Rasdb.Info ~component:"kernel" ~message:"y");
  Rasdb.publish_gauges db o;
  let g name = Obs.gauge_value o ~subsystem:"ras" ~name () in
  check_bool "ras.error gauge" true (g "error" = Some 1);
  check_bool "ras.info gauge" true (g "info" = Some 1);
  check_bool "ras.total gauge" true (g "total" = Some 2);
  check_bool "ras.dropped gauge" true (g "dropped" = Some 0)

(* ------------------------------------------------------------------ *)
(* Rule grammar and the typed HEALTH wire format *)

let test_rule_parse_roundtrip () =
  let cases =
    [
      "retransmit_storm: cio.retransmits delta >= 8 for 2 error";
      "queue: scheduler.queue_wait_cycles p99 > 500000";
      "stall_rate: dma.inject_stalls rate <= 0.5 info";
      "links: torus.links_down value > 0 for 3 warn";
    ]
  in
  List.iter
    (fun s ->
      match Health.parse_rule s with
      | Error e -> Alcotest.fail (s ^ " rejected: " ^ e)
      | Ok r -> (
        match Health.parse_rule (Health.rule_to_string r) with
        | Ok r' -> check_bool ("roundtrip: " ^ s) true (r = r')
        | Error e -> Alcotest.fail ("printed form rejected: " ^ e)))
    cases;
  let rejected s =
    match Health.parse_rule s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted bad rule: " ^ s)
  in
  rejected "no_colon cio.retransmits delta > 1";
  rejected "r: nodot delta > 1";
  rejected "r: a.b bogus > 1";
  rejected "r: a.b delta >> 1";
  rejected "r: a.b delta > not_a_number";
  rejected "r: a.b delta > 1 for 0";
  rejected "r: a.b delta > 1 fatal";
  rejected ""

(* ------------------------------------------------------------------ *)
(* RAS text: the severity, component and message [Machine.ras_store]
   files for each event, pinned byte for byte *)

let ras_text_rows =
  let fault f = Machine.Fault f in
  let note from severity text = Machine.Note { from; severity; text } in
  [
    ( "faults",
      [
        (3, fault (L1_parity { rank = 3; core = 2 }), Rasdb.Warn, "parity",
         "FAULT parity rank=3 core=2");
        (17, fault (Node_death { rank = 17 }), Rasdb.Error, "node_death",
         "FAULT node_death rank=17");
        (5, fault (Link_failure { rank = 5; dir = 4 }), Rasdb.Error, "link",
         "FAULT link rank=5 dir=4");
        (5, fault (Link_repair { rank = 5; dir = 4 }), Rasdb.Info, "link_up",
         "FAULT link_up rank=5 dir=4");
        (7, fault (Ciod_crash { io_node = 7; fatal = false }), Rasdb.Error, "ciod_crash",
         "FAULT ciod_crash io=7 fatal=0");
        (7, fault (Ciod_crash { io_node = 7; fatal = true }), Rasdb.Error, "ciod_crash",
         "FAULT ciod_crash io=7 fatal=1");
        (2, fault (Ciod_restart { io_node = 2 }), Rasdb.Info, "ciod_up", "FAULT ciod_up io=2");
      ] );
    ( "alert",
      [
        ( 3,
          Machine.Alert
            { Health.rule = "retransmit_storm"; severity = Rasdb.Error;
              series = "cio.retransmits:rate"; rank = 3; core = -1; window = 21;
              at = 2_100_000; value = 12.5; threshold = 0.1 },
          Rasdb.Error,
          "health",
          "HEALTH alert rule=retransmit_storm series=cio.retransmits:rate rank=3 core=-1 \
           window=21 value=12.5 threshold=0.10000000000000001" );
      ] );
    ( "thread deaths",
      [
        (0, Machine.Thread_death { tid = 3; cause = Crashed "Failure(\"oops\")" },
         Rasdb.Error, "kernel", "tid 3 crashed: Failure(\"oops\")");
        (1, Machine.Thread_death { tid = 4; cause = Unhandled_signal 11 }, Rasdb.Error,
         "kernel", "tid 4 killed by unhandled signal 11");
        (2, Machine.Thread_death { tid = 5; cause = Segv "segfault at 0x1000" }, Rasdb.Error,
         "kernel", "tid 5 segv: segfault at 0x1000");
      ] );
    ( "notes",
      [
        (1, note Kernel Rasdb.Warn "L1 parity error on core 2", Rasdb.Warn, "kernel",
         "L1 parity error on core 2");
        (0, note Sched Rasdb.Warn "SCHED walltime job=1 rank=0 limit=500", Rasdb.Warn, "sched",
         "SCHED walltime job=1 rank=0 limit=500");
        (7, note Heal Rasdb.Info "HEAL substitute dead=3 spare=7", Rasdb.Info, "heal",
         "HEAL substitute dead=3 spare=7");
      ] );
  ]

let test_ras_text cls () =
  let db = Rasdb.create () in
  List.iter
    (fun (rank, ev, severity, component, message) ->
      let r = Machine.ras_store db ~cycle:42 ~rank ev in
      check_str "message" message r.Rasdb.message;
      check_str ("component of " ^ message) component r.Rasdb.component;
      check_str ("severity of " ^ message)
        (Rasdb.severity_name severity) (Rasdb.severity_name r.Rasdb.severity);
      check_int ("rank of " ^ message) rank r.Rasdb.rank;
      check_int "cycle" 42 r.Rasdb.cycle)
    (List.assoc cls ras_text_rows)

(* ------------------------------------------------------------------ *)
(* Alert evaluation: edge-trigger, streaks, re-arm *)

let create_ok ?recorder ~ts ~db ~rules () =
  match Health.create ?recorder ~ts ~db ~rules () with
  | Ok svc -> svc
  | Error e -> Alcotest.fail (Health.rule_error_message e)

let test_alert_edge_trigger () =
  let o = Obs.create ~enabled:true () in
  let ts = Ts.create ~window:100 o in
  let db = Rasdb.create () in
  let rule =
    match Health.parse_rule "hot: cio.retransmits delta >= 3 for 2 warn" with
    | Ok r -> r
    | Error e -> failwith e
  in
  let svc = create_ok ~ts ~db ~rules:[ rule ] () in
  let emitted = ref [] in
  Health.set_emit svc (fun a -> emitted := a :: !emitted);
  let hot w =
    Obs.incr o ~subsystem:"cio" ~name:"retransmits" ~by:3 ();
    Ts.sample ts ~now:(w * 100)
  in
  let cold w = Ts.sample ts ~now:(w * 100) in
  hot 1;
  check_int "streak of 1 does not fire" 0 (Health.alert_count svc);
  hot 2;
  check_int "second consecutive window fires" 1 (Health.alert_count svc);
  hot 3;
  check_int "still firing, no re-fire" 1 (Health.alert_count svc);
  check_int "one alert in firing state" 1 (List.length (Health.firing svc));
  cold 4;
  check_int "predicate cleared" 0 (List.length (Health.firing svc));
  hot 5;
  hot 6;
  check_int "re-arms after clearing" 2 (Health.alert_count svc);
  (match List.rev !emitted with
  | (a : Health.alert) :: _ ->
    check_str "rule name" "hot" a.Health.rule;
    check_str "series label" "cio.retransmits:delta" a.Health.series;
    check_int "fired on window 1" 1 a.Health.window;
    check_float "observed value" 3.0 a.Health.value;
    check_float "threshold" 3.0 a.Health.threshold
  | [] -> Alcotest.fail "emit hook never called");
  (* each firing alert captured a postmortem bundle, all valid JSON *)
  check_int "one bundle per firing" 2 (List.length (Health.reports svc));
  List.iter
    (fun (label, json) ->
      check_str "alert bundle label" "alert:hot" label;
      match Export.validate_json json with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("bundle is not valid JSON: " ^ e))
    (Health.reports svc)

let test_recorder_fault_trigger_and_bound () =
  let o = Obs.create ~enabled:true () in
  let ts = Ts.create ~window:100 o in
  let db = Rasdb.create () in
  let recorder = { Health.default_recorder with Health.max_reports = 2 } in
  let svc = create_ok ~recorder ~ts ~db ~rules:[] () in
  Health.set_snap_provider svc (fun () -> "replay:seed=1,events=0,clock=0");
  (* Error-severity inserts trigger capture; Info/Warn do not *)
  let add cycle rank severity component message =
    ignore (Rasdb.add db ~cycle ~rank ~severity ~component ~message)
  in
  add 10 0 Rasdb.Info "kernel" "boot ok";
  check_int "info does not capture" 0 (List.length (Health.reports svc));
  (* nor do the control plane's reactions to a fault, nor health's own *)
  add 11 0 Rasdb.Error "health" "HEALTH alert rule=r";
  add 12 0 Rasdb.Error "sched" "SCHED job_lost job=1 rank=0";
  add 13 0 Rasdb.Error "heal" "HEAL pset_lost io=0";
  check_int "control-plane errors do not capture" 0 (List.length (Health.reports svc));
  add 20 1 Rasdb.Error "ciod_crash" "FAULT ciod_crash io=0 fatal=1";
  add 30 2 Rasdb.Error "kernel" "tid 1 crashed: x";
  add 40 3 Rasdb.Error "kernel" "tid 2 crashed: y";
  check_int "bounded at max_reports" 2 (List.length (Health.reports svc));
  check_int "overflow counted" 1 (Health.captures_suppressed svc);
  (match Health.reports svc with
  | ("fault:ciod_crash", json) :: _ ->
    (match Export.validate_json json with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("bundle is not valid JSON: " ^ e));
    let contains sub =
      let n = String.length sub and m = String.length json in
      let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
      at 0
    in
    check_bool "carries the snapshot reference" true
      (contains "replay:seed=1,events=0,clock=0");
    check_bool "carries the trigger message" true (contains "io=0")
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected fault:ciod_crash first, got %s"
         (String.concat "," (List.map fst l))))

(* ------------------------------------------------------------------ *)
(* Whole-machine invariants *)

let io_workload () =
  let fd = Bg_rt.Libc.openf ~flags:Sysreq.o_create_trunc "/health-test.dat" in
  let block = Bytes.make 64 'h' in
  for i = 0 to 199 do
    ignore (Bg_rt.Libc.pwrite fd block ~offset:(i * 64))
  done;
  Bg_rt.Libc.close fd

let seeded_run ~health () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:7L () in
  let machine = Cnk.Cluster.machine cluster in
  Obs.set_enabled (Machine.obs machine) true;
  Bg_obs.Causal.set_enabled (Machine.causal machine) true;
  let svc =
    if not health then None
    else
      match Machine.attach_health ~window:50_000 machine with
      | Ok h -> Some h
      | Error e -> Alcotest.fail (Health.rule_error_message e)
  in
  Cnk.Cluster.boot_all cluster;
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"hio" (Image.executable ~name:"hio" io_workload));
  (cluster, machine, svc)

let test_health_on_digests_unperturbed () =
  (* The acceptance bar for the whole subsystem: attaching the health
     service must leave the architectural trace, the span stream and
     the causal graph byte-identical — sampling is pure observation. *)
  let digests (cluster, machine, _) =
    ( Fnv.to_hex (Trace.digest (Sim.trace (Cnk.Cluster.sim cluster))),
      Fnv.to_hex (Obs.digest (Machine.obs machine)),
      Fnv.to_hex (Bg_obs.Causal.digest (Machine.causal machine)) )
  in
  let t_off, s_off, c_off = digests (seeded_run ~health:false ()) in
  let t_on, s_on, c_on = digests (seeded_run ~health:true ()) in
  check_str "sim digest unperturbed" t_off t_on;
  check_str "span digest unperturbed" s_off s_on;
  check_str "causal digest unperturbed" c_off c_on

let test_same_seed_reports_byte_identical () =
  let run () =
    let cluster, machine, svc = seeded_run ~health:true () in
    let h = match svc with Some h -> h | None -> assert false in
    (* a seeded fault after the run: deterministic trigger for the
       flight recorder, identical across runs *)
    Machine.ras_emit machine ~rank:0
      (Machine.Thread_death { tid = 0; cause = Crashed "seeded" });
    ignore cluster;
    (Health.reports h.Machine.h_svc, Fnv.to_hex (Health.digest h.Machine.h_svc))
  in
  let r1, d1 = run () in
  let r2, d2 = run () in
  check_str "health digest reproducible" d1 d2;
  check_int "same report count" (List.length r1) (List.length r2);
  List.iter2
    (fun (l1, j1) (l2, j2) ->
      check_str "same label" l1 l2;
      check_bool "byte-identical bundle" true (String.equal j1 j2))
    r1 r2;
  check_bool "at least the fault bundle captured" true (List.length r1 >= 1)

let test_recovery_consumes_alerts () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:3L () in
  let machine = Cnk.Cluster.machine cluster in
  Cnk.Cluster.boot_all cluster;
  let sched = Bg_control.Scheduler.create cluster in
  let recovery = Res.Recovery.attach sched in
  Machine.ras_emit machine ~rank:0
    (Machine.Alert
       { Health.rule = "hot"; severity = Rasdb.Warn; series = "s.c:delta"; rank = 0;
         core = -1; window = 1; at = 0; value = 3.0; threshold = 3.0 });
  check_int "recovery saw the typed alert" 1 (Res.Recovery.alerts_seen recovery);
  check_int "advisory: no jobs were killed" 0 (Res.Recovery.events_seen recovery)

let test_scheduler_turnaround_timer () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:5L () in
  let machine = Cnk.Cluster.machine cluster in
  Obs.set_enabled (Machine.obs machine) true;
  Cnk.Cluster.boot_all cluster;
  let sched = Bg_control.Scheduler.create cluster in
  ignore
    (Bg_control.Scheduler.submit sched ~shape:(1, 1, 1)
       (Job.create ~name:"t" (Image.executable ~name:"t" io_workload)));
  Bg_control.Scheduler.drain sched;
  match
    Obs.timer_stats (Machine.obs machine) ~subsystem:"scheduler"
      ~name:"turnaround_cycles" ()
  with
  | Some st -> check_bool "one completed job observed" true (Stats.Online.n st >= 1)
  | None -> Alcotest.fail "scheduler.turnaround_cycles timer missing"

(* A rule on a misspelt series parses (the grammar is fine) but
   [Health.create] refuses it, naming the series; the tools' own rules
   pass. *)
let test_rule_schema_check () =
  let parse s =
    match Health.parse_rule s with Ok r -> r | Error e -> Alcotest.fail (s ^ " rejected: " ^ e)
  in
  let create rules =
    let o = Obs.create () in
    Health.create ~ts:(Ts.create o) ~db:(Rasdb.create ()) ~rules ()
  in
  let typo = parse "node_deaths: resilience.deaths_handeld delta >= 1 warn" in
  (match create [ typo ] with
  | Error (Health.Unknown_series { rule; series } as e) ->
    check_str "rule" "node_deaths" rule;
    check_str "series" "resilience.deaths_handeld" series;
    check_str "message" "rule node_deaths: no metric named resilience.deaths_handeld is declared"
      (Health.rule_error_message e)
  | Error e -> Alcotest.fail ("wrong error: " ^ Health.rule_error_message e)
  | Ok _ -> Alcotest.fail "misspelt series accepted");
  let declared =
    List.map parse
      [
        "node_deaths: resilience.deaths_handled delta >= 1 warn";
        "retransmit_rate: cio.retransmits rate >= 10 warn";
        "ras_errors: ras.error value >= 1 error";
        "dma_stall: dma.inject_stalls value > 0 warn";
        "span_loss: obs.dropped_spans delta > 0 info";
        "queue: scheduler.queue_wait_cycles p99 > 500000";
        "links: torus.links_down value > 0 for 3 warn";
      ]
  in
  check_bool "declared series pass" true (Result.is_ok (create declared));
  check_bool "the first unknown series is reported" true
    (match create (declared @ [ typo; parse "s: s.c delta > 0" ]) with
    | Error (Health.Unknown_series { series; _ }) -> series = "resilience.deaths_handeld"
    | _ -> false)

(* Rules built by hand skip the grammar's checks: a bad name or window
   count is an error value, not an exception. *)
let test_bad_rule_is_error () =
  let rule =
    match Health.parse_rule "ok: cio.retransmits delta >= 1" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let create rules =
    let o = Obs.create () in
    Health.create ~ts:(Ts.create o) ~db:(Rasdb.create ()) ~rules ()
  in
  let check_error what expected rules =
    match create rules with
    | Error e -> check_str what expected (Health.rule_error_message e)
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  check_bool "well-formed rule" true (Result.is_ok (create [ rule ]));
  check_error "empty name" "bad rule name \"\"" [ { rule with Health.rule_name = "" } ];
  check_error "whitespace name" "bad rule name \"two words\""
    [ rule; { rule with Health.rule_name = "two words" } ];
  check_error "zero windows" "rule ok: for_windows 0 < 1" [ { rule with Health.for_windows = 0 } ]

(* [Machine.attach_health] hands the rule error back and wires nothing:
   the RAS stream gets no subscriber and the collector stays off. *)
let test_attach_health_misspelt_series () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  let typo =
    match Health.parse_rule "retransmit_rate: cio.retransmit rate >= 10 warn" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (match Machine.attach_health ~rules:[ typo ] machine with
  | Error (Health.Unknown_series { series; _ }) -> check_str "series" "cio.retransmit" series
  | Error e -> Alcotest.fail ("wrong error: " ^ Health.rule_error_message e)
  | Ok _ -> Alcotest.fail "misspelt series accepted");
  check_bool "no service attached" true (Machine.health machine = None);
  check_int "no RAS subscriber" 0 (List.length machine.Machine.ras_subscribers);
  check_bool "collector left off" false (Obs.enabled (Machine.obs machine));
  check_bool "a good rule still attaches" true
    (Result.is_ok (Machine.attach_health ~rules:[ { typo with Health.metric = "retransmits" } ] machine))

let suite =
  [
    Alcotest.test_case "rollups: delta/level/windowed percentiles" `Quick test_rollup_kinds;
    Alcotest.test_case "rollups: ring bound + dropped points" `Quick test_ring_bound_and_drops;
    Alcotest.test_case "rollups: max_series bound" `Quick test_max_series_bound;
    Alcotest.test_case "rollups: digest deterministic" `Quick
      test_timeseries_digest_deterministic;
    Alcotest.test_case "rasdb: indexes, filters, rates" `Quick test_rasdb_queries;
    Alcotest.test_case "rasdb: severity gauges" `Quick test_rasdb_gauges;
    Alcotest.test_case "rules: parse + print roundtrip" `Quick test_rule_parse_roundtrip;
    Alcotest.test_case "rules: undeclared series is a typed error" `Quick
      test_rule_schema_check;
    Alcotest.test_case "rules: bad name or window count is an Error" `Quick
      test_bad_rule_is_error;
    Alcotest.test_case "attach: misspelt series is an Error" `Quick
      test_attach_health_misspelt_series;
    Alcotest.test_case "ras text: faults" `Quick (test_ras_text "faults");
    Alcotest.test_case "ras text: alert" `Quick (test_ras_text "alert");
    Alcotest.test_case "ras text: thread deaths" `Quick (test_ras_text "thread deaths");
    Alcotest.test_case "ras text: notes" `Quick (test_ras_text "notes");
    Alcotest.test_case "alerts: edge-trigger, streak, re-arm" `Quick test_alert_edge_trigger;
    Alcotest.test_case "recorder: fault trigger + bound" `Quick
      test_recorder_fault_trigger_and_bound;
    Alcotest.test_case "health on: digests unperturbed" `Quick
      test_health_on_digests_unperturbed;
    Alcotest.test_case "same seed: byte-identical postmortems" `Quick
      test_same_seed_reports_byte_identical;
    Alcotest.test_case "recovery consumes HEALTH alerts" `Quick test_recovery_consumes_alerts;
    Alcotest.test_case "scheduler: turnaround timer" `Quick test_scheduler_turnaround_timer;
  ]
