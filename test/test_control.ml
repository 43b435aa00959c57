(* Tests for the control-system substrate: partition allocation invariants
   and the space-sharing job scheduler (FIFO + backfill). *)

open Bg_kabi
module Ctl = Bg_control
module Rasdb = Bg_obs.Rasdb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_basic () =
  let p = Ctl.Partition.create ~dims:(4, 4, 4) in
  check_int "64 nodes" 64 (Ctl.Partition.total_nodes p);
  let a = Result.get_ok (Ctl.Partition.allocate p ~shape:(2, 2, 2)) in
  check_int "8 ranks" 8 (List.length a.Ctl.Partition.ranks);
  check_int "56 free" 56 (Ctl.Partition.free_nodes p);
  Ctl.Partition.release p a.Ctl.Partition.id;
  check_int "all free again" 64 (Ctl.Partition.free_nodes p)

let test_partition_disjoint () =
  let p = Ctl.Partition.create ~dims:(4, 4, 1) in
  let a = Result.get_ok (Ctl.Partition.allocate p ~shape:(2, 2, 1)) in
  let b = Result.get_ok (Ctl.Partition.allocate p ~shape:(2, 2, 1)) in
  let overlap =
    List.exists (fun r -> List.mem r b.Ctl.Partition.ranks) a.Ctl.Partition.ranks
  in
  check_bool "partitions are isolated" false overlap

let test_partition_exhaustion_and_reuse () =
  let p = Ctl.Partition.create ~dims:(2, 2, 1) in
  let a = Result.get_ok (Ctl.Partition.allocate p ~shape:(2, 2, 1)) in
  (match Ctl.Partition.allocate p ~shape:(1, 1, 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "allocated on a full machine");
  Ctl.Partition.release p a.Ctl.Partition.id;
  check_bool "fits after release" true
    (Result.is_ok (Ctl.Partition.allocate p ~shape:(2, 2, 1)))

let test_partition_shape_too_big () =
  let p = Ctl.Partition.create ~dims:(4, 4, 1) in
  match Ctl.Partition.allocate p ~shape:(5, 1, 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized shape accepted"

let prop_partition_never_double_books =
  QCheck.Test.make ~name:"partition: live allocations never share a rank" ~count:100
    QCheck.(list_of_size Gen.(1 -- 25) (pair (int_range 1 3) (int_range 1 3)))
    (fun shapes ->
      let p = Ctl.Partition.create ~dims:(4, 4, 2) in
      let live = ref [] in
      List.iteri
        (fun i (sx, sy) ->
          (match Ctl.Partition.allocate p ~shape:(sx, sy, 1) with
          | Ok a -> live := a :: !live
          | Error _ -> ());
          (* release every third allocation to churn *)
          if i mod 3 = 2 then
            match !live with
            | a :: rest ->
              Ctl.Partition.release p a.Ctl.Partition.id;
              live := rest
            | [] -> ())
        shapes;
      let all = List.concat_map (fun a -> a.Ctl.Partition.ranks) !live in
      List.length all = List.length (List.sort_uniq compare all))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let quick_job name cycles ran =
  Job.create ~name
    (Image.executable ~name (fun () ->
         Coro.consume cycles;
         incr ran))

let test_scheduler_space_shares () =
  (* two 2-node jobs run concurrently on a 4-node machine *)
  let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let s = Ctl.Scheduler.create cluster in
  let ran = ref 0 in
  let j1 = Ctl.Scheduler.submit s ~shape:(2, 1, 1) (quick_job "a" 1_000_000 ran) in
  let j2 = Ctl.Scheduler.submit s ~shape:(2, 1, 1) (quick_job "b" 1_000_000 ran) in
  Ctl.Scheduler.drain s;
  check_int "both jobs ran on all their nodes" 4 !ran;
  (match (Ctl.Scheduler.state s j1, Ctl.Scheduler.state s j2) with
  | Ctl.Scheduler.Completed c1, Ctl.Scheduler.Completed c2 ->
    (* concurrent, not serial: completions within one job-length *)
    check_bool "overlapped in time" true (abs (c1 - c2) < 1_000_000)
  | _ -> Alcotest.fail "jobs not completed")

let test_scheduler_fifo_waits () =
  (* a full-machine job followed by a small one: FIFO keeps order *)
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let s = Ctl.Scheduler.create cluster in
  let ran = ref 0 in
  let big = Ctl.Scheduler.submit s ~shape:(2, 1, 1) (quick_job "big" 2_000_000 ran) in
  let small = Ctl.Scheduler.submit s ~shape:(1, 1, 1) (quick_job "small" 100_000 ran) in
  Ctl.Scheduler.drain s;
  Alcotest.(check (list int)) "completion order is submission order" [ big; small ]
    (Ctl.Scheduler.completed_order s)

let test_scheduler_backfill_overtakes () =
  (* machine 2 nodes: job A (1 node, long), job B (2 nodes, blocked while A
     runs), job C (1 node, short). Backfill lets C use the idle node. *)
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let s = Ctl.Scheduler.create ~backfill:true cluster in
  let ran = ref 0 in
  let a = Ctl.Scheduler.submit s ~shape:(1, 1, 1) (quick_job "a" 5_000_000 ran) in
  let b = Ctl.Scheduler.submit s ~shape:(2, 1, 1) (quick_job "b" 100_000 ran) in
  let c = Ctl.Scheduler.submit s ~shape:(1, 1, 1) (quick_job "c" 100_000 ran) in
  Ctl.Scheduler.drain s;
  (* c backfilled ahead of b *)
  Alcotest.(check (list int)) "backfill order" [ c; a; b ] (Ctl.Scheduler.completed_order s);
  check_int "every node of every job ran" 4 !ran

let test_scheduler_rejects_impossible () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let s = Ctl.Scheduler.create cluster in
  let ran = ref 0 in
  check_bool "impossible job rejected at submit" true
    (try
       ignore (Ctl.Scheduler.submit s ~shape:(3, 1, 1) (quick_job "x" 1 ran));
       false
     with Failure _ -> true)

let test_scheduler_survives_faulting_job () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let s = Ctl.Scheduler.create cluster in
  let ran = ref 0 in
  let crasher =
    Job.create ~name:"crash"
      (Image.executable ~name:"crash" (fun () ->
           let brk = Bg_rt.Libc.brk_now () in
           Coro.store ~addr:(brk + 8) (Bytes.of_string "boom")))
  in
  let a = Ctl.Scheduler.submit s ~shape:(2, 1, 1) crasher in
  let b = Ctl.Scheduler.submit s ~shape:(1, 1, 1) (quick_job "after" 50_000 ran) in
  Ctl.Scheduler.drain s;
  (* the crashing job completes (with faults) and releases its partition;
     the queue keeps moving *)
  Alcotest.(check (list int)) "both completed in order" [ a; b ]
    (Ctl.Scheduler.completed_order s);
  check_int "follow-up job ran" 1 !ran;
  check_bool "fault recorded where it happened" true
    (Cnk.Node.faults (Cnk.Cluster.node cluster 0) <> [])

let test_scheduler_walltime_kills_runaway () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let s = Ctl.Scheduler.create cluster in
  let ran = ref 0 in
  (* a job that would run ~1.2 s of simulated time without the limit *)
  let runaway =
    Job.create ~name:"runaway"
      (Image.executable ~name:"runaway" (fun () -> Coro.consume 1_000_000_000))
  in
  let a = Ctl.Scheduler.submit s ~walltime_cycles:5_000_000 ~shape:(2, 1, 1) runaway in
  let b = Ctl.Scheduler.submit s ~shape:(1, 1, 1) (quick_job "next" 50_000 ran) in
  Ctl.Scheduler.drain s;
  (match Ctl.Scheduler.state s a with
  | Ctl.Scheduler.Completed at -> check_bool "killed near the limit" true (at < 10_000_000)
  | _ -> Alcotest.fail "runaway not completed");
  check_int "queue kept moving" 1 !ran;
  (* exit code 137 recorded on a killed node (rank 1 ran nothing since) *)
  Alcotest.(check bool) "killed status" true
    (List.exists (fun (_, code) -> code = 137)
       (Cnk.Node.exit_codes (Cnk.Cluster.node cluster 1)));
  Alcotest.(check (list int)) "completion order" [ a; b ] (Ctl.Scheduler.completed_order s)

let test_scheduler_deterministic () =
  let run () =
    let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) ~seed:3L () in
    Cnk.Cluster.boot_all cluster;
    let s = Ctl.Scheduler.create cluster in
    let ran = ref 0 in
    for i = 1 to 6 do
      ignore
        (Ctl.Scheduler.submit s ~shape:((i mod 2) + 1, 1, 1)
           (quick_job (Printf.sprintf "j%d" i) (100_000 * i) ran))
    done;
    Ctl.Scheduler.drain s;
    (Ctl.Scheduler.completed_order s, Bg_engine.Sim.now (Cnk.Cluster.sim cluster))
  in
  let o1, t1 = run () in
  let o2, t2 = run () in
  Alcotest.(check (list int)) "same schedule" o1 o2;
  check_int "same makespan" t1 t2

(* ------------------------------------------------------------------ *)
(* RAS log *)

(* Subscribe a RAS database to the machine's stream, as
   [Machine.attach_health] does. *)
let attach_rasdb ?capacity machine =
  let db = Rasdb.create ?capacity () in
  Machine.on_ras machine (fun ~rank ev ->
      ignore (Machine.ras_store db ~cycle:(Bg_engine.Sim.now machine.Machine.sim) ~rank ev));
  db

let test_ras_collects_kernel_events () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  let ras = attach_rasdb (Cnk.Cluster.machine cluster) in
  Cnk.Cluster.boot_all cluster;
  let image =
    Image.executable ~name:"crashy" (fun () ->
        let brk = Bg_rt.Libc.brk_now () in
        Coro.store ~addr:(brk + 8) (Bytes.of_string "smash"))
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"c" image);
  (* guard hit (warn) then unhandled-signal kill (error) *)
  check_bool "warn logged" true (Rasdb.severity_count ras Rasdb.Warn >= 1);
  check_int "one error" 1 (List.length (Rasdb.records ras ~severity:Rasdb.Error ()));
  (match Rasdb.records ras ~severity:Rasdb.Error () with
  | [ e ] ->
    check_int "rank attached" 0 e.Rasdb.rank;
    check_bool "cycle attached" true (e.Rasdb.cycle > 0)
  | _ -> Alcotest.fail "expected one error");
  check_int "by_rank sees them all" (Rasdb.count ras)
    (List.length (Rasdb.records ras ~rank:0 ()))

let test_ras_l1_parity_warns () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  let ras = attach_rasdb (Cnk.Cluster.machine cluster) in
  Cnk.Cluster.boot_all cluster;
  let node = Cnk.Cluster.node cluster 0 in
  let image =
    Image.executable ~name:"app" (fun () ->
        Sysreq.expect_unit
          (Coro.syscall (Sysreq.Sigaction { signo = 7; handler = Some (fun _ -> ()) }));
        Coro.consume 2_000_000)
  in
  (match Cnk.Node.launch node (Job.create ~name:"a" image) with
  | Ok () -> ()
  | Error e -> failwith e);
  ignore
    (Bg_engine.Sim.schedule_at (Cnk.Cluster.sim cluster) 2_600_000 (fun () ->
         ignore (Cnk.Node.inject_l1_parity_error node ~core:0)));
  Cnk.Cluster.run_until_quiet cluster;
  check_int "parity warn, no errors" 0 (List.length (Rasdb.records ras ~severity:Rasdb.Error ()));
  check_bool "warn recorded" true
    (List.exists
       (fun e -> e.Rasdb.severity = Rasdb.Warn && String.length e.Rasdb.message >= 2)
       (Rasdb.records ras ()))

let test_ras_log_is_bounded () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  let ras = attach_rasdb ~capacity:8 machine in
  for i = 1 to 20 do
    let severity = if i mod 5 = 0 then Rasdb.Error else Rasdb.Info in
    Machine.ras_emit machine ~rank:0
      (Machine.Note { severity; text = Printf.sprintf "storm %d" i })
  done;
  check_int "ring holds capacity" 8 (List.length (Rasdb.records ras ()));
  check_int "overwritten accounted" 12 (Rasdb.dropped ras);
  check_int "total count exact despite drops" 20 (Rasdb.count ras);
  check_int "per-severity count exact" 4 (Rasdb.severity_count ras Rasdb.Error);
  (match Rasdb.records ras () with
  | oldest :: _ ->
    Alcotest.(check string) "oldest retained is event 13" "storm 13"
      oldest.Rasdb.message
  | [] -> Alcotest.fail "empty ring")

(* ------------------------------------------------------------------ *)
(* Torus link faults *)

let test_torus_reroutes_around_broken_link () =
  let machine = Machine.create ~dims:(4, 1, 1) () in
  let torus = machine.Machine.torus in
  check_int "healthy short path" 1 (Bg_hw.Torus.hops torus ~src:0 ~dst:1);
  (* break 0 -> +x *)
  Bg_hw.Torus.set_link_broken torus ~rank:0 ~dir:0 true;
  check_int "reroutes the long way" 3 (Bg_hw.Torus.hops torus ~src:0 ~dst:1);
  (* traffic still flows *)
  let arrived = ref false in
  Bg_hw.Torus.transfer torus ~src:0 ~dst:1 ~bytes:64
    ~on_arrival:(fun ~arrival_cycle:_ -> arrived := true)
    ();
  ignore (Bg_engine.Sim.run machine.Machine.sim);
  check_bool "delivered over the detour" true !arrived;
  (* reverse direction unaffected *)
  check_int "other direction intact" 1 (Bg_hw.Torus.hops torus ~src:1 ~dst:0)

let test_torus_severed_ring_fails () =
  let machine = Machine.create ~dims:(4, 1, 1) () in
  let torus = machine.Machine.torus in
  (* sever both directions out of the region between 0 and 1 *)
  Bg_hw.Torus.set_link_broken torus ~rank:0 ~dir:0 true;
  Bg_hw.Torus.set_link_broken torus ~rank:0 ~dir:1 true;
  Alcotest.check_raises "unroutable" (Bg_hw.Fault.Unavailable "torus ring severed")
    (fun () -> Bg_hw.Torus.transfer torus ~src:0 ~dst:1 ~bytes:8 ());
  Alcotest.(check (list (pair int int))) "bookkeeping" [ (0, 0); (0, 1) ]
    (Bg_hw.Torus.broken_links torus);
  (* repair and verify *)
  Bg_hw.Torus.set_link_broken torus ~rank:0 ~dir:0 false;
  Bg_hw.Torus.set_link_broken torus ~rank:0 ~dir:1 false;
  check_int "healthy again" 1 (Bg_hw.Torus.hops torus ~src:0 ~dst:1)

(* ------------------------------------------------------------------ *)
(* Debugger facade *)

let test_debugger_reads_and_chases () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let head_addr = ref 0 in
  let image =
    Image.executable ~name:"dbg" (fun () ->
        (* build a 3-node list in the heap: [value; next] cells *)
        let cell v next =
          let a = Bg_rt.Malloc.malloc 16 in
          Bg_rt.Libc.poke a v;
          Bg_rt.Libc.poke (a + 8) next;
          a
        in
        let c3 = cell 30 0 in
        let c2 = cell 20 c3 in
        let c1 = cell 10 c2 in
        head_addr := c1;
        (* keep the process alive long enough is unnecessary: memory stays
           inspectable after exit (the job's map is retained) *)
        Coro.consume 1_000)
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"dbg" image);
  let dbg = Ctl.Debugger.attach cluster ~rank:0 in
  let nodes = Ctl.Debugger.chase dbg ~pid:1 ~head:!head_addr ~next_offset:8 ~max:10 in
  check_int "three nodes" 3 (List.length nodes);
  Alcotest.(check (list int)) "values along the chain" [ 10; 20; 30 ]
    (List.map (fun a -> Ctl.Debugger.read_word dbg ~pid:1 ~addr:a) nodes);
  let snap = Ctl.Debugger.inspect dbg ~pid:1 in
  check_bool "map visible" true (List.length snap.Ctl.Debugger.regions > 3);
  check_bool "counters visible" true (snap.Ctl.Debugger.syscalls > 0)

(* ------------------------------------------------------------------ *)
(* VCD export *)

let vcd_run ?(seed = 1L) () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) ~seed () in
  Cnk.Cluster.boot_all cluster;
  let image =
    Image.executable ~name:"t" (fun () ->
        for _ = 1 to 40 do
          Coro.consume 4_000;
          ignore (Bg_rt.Libc.gettid ())
        done)
  in
  Cnk.Cluster.launch_all cluster ~ranks:[ 0 ] (Job.create ~name:"t" image);
  cluster

let test_vcd_export () =
  let wf =
    Bg_bringup.Waveform.assemble ~run:(vcd_run ~seed:1L) ~rank:0 ~from_cycle:100_000
      ~cycles:4 ~stride:20_000 ()
  in
  let vcd = Bg_bringup.Vcd.to_string wf in
  check_bool "has definitions" true
    (String.length vcd > 200
    &&
    let has needle =
      let n = String.length vcd and m = String.length needle in
      let rec go i = i + m <= n && (String.sub vcd i m = needle || go (i + 1)) in
      go 0
    in
    has "$enddefinitions" && has "chip_state" && has "#100000" && has "b");
  (* a diff of identical runs never raises the diverged wire *)
  let wf2 =
    Bg_bringup.Waveform.assemble ~run:(vcd_run ~seed:1L) ~rank:0 ~from_cycle:100_000
      ~cycles:4 ~stride:20_000 ()
  in
  let diff = Bg_bringup.Vcd.diff_to_string ~golden:wf ~suspect:wf2 in
  let count_lines pred =
    String.split_on_char '\n' diff |> List.filter pred |> List.length
  in
  check_int "diverged never set" 0 (count_lines (fun l -> l = "1d"));
  check_int "diverged cleared at every sample" 4 (count_lines (fun l -> l = "0d"))

let suite =
  [
    Alcotest.test_case "debugger: read + chase" `Quick test_debugger_reads_and_chases;
    Alcotest.test_case "vcd: export + diff" `Quick test_vcd_export;
    Alcotest.test_case "ras: kernel events collected" `Quick test_ras_collects_kernel_events;
    Alcotest.test_case "ras: parity warns" `Quick test_ras_l1_parity_warns;
    Alcotest.test_case "ras: log is bounded" `Quick test_ras_log_is_bounded;
    Alcotest.test_case "torus: reroute around broken link" `Quick
      test_torus_reroutes_around_broken_link;
    Alcotest.test_case "torus: severed ring" `Quick test_torus_severed_ring_fails;
    Alcotest.test_case "partition: basic" `Quick test_partition_basic;
    Alcotest.test_case "partition: disjoint" `Quick test_partition_disjoint;
    Alcotest.test_case "partition: exhaustion/reuse" `Quick test_partition_exhaustion_and_reuse;
    Alcotest.test_case "partition: oversize" `Quick test_partition_shape_too_big;
    Alcotest.test_case "scheduler: space shares" `Quick test_scheduler_space_shares;
    Alcotest.test_case "scheduler: fifo" `Quick test_scheduler_fifo_waits;
    Alcotest.test_case "scheduler: backfill" `Quick test_scheduler_backfill_overtakes;
    Alcotest.test_case "scheduler: impossible job" `Quick test_scheduler_rejects_impossible;
    Alcotest.test_case "scheduler: survives faults" `Quick test_scheduler_survives_faulting_job;
    Alcotest.test_case "scheduler: walltime kill" `Quick test_scheduler_walltime_kills_runaway;
    Alcotest.test_case "scheduler: deterministic" `Quick test_scheduler_deterministic;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_partition_never_double_books ]
