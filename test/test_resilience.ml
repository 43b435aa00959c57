(* Tests for the resilience subsystem (paper §V.B, §VI): deterministic
   fault injection, typed RAS events, scheduler-driven recovery with
   down-node exclusion, and the coordinated checkpoint/restart service —
   including the CNK-parity-vs-FWK-rollback cost asymmetry. *)

open Bg_engine
open Bg_kabi
module Ctl = Bg_control
module Res = Bg_resilience
module Obs = Bg_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* RAS dispatch: the control system acts on the event, not its text *)

(* Run a two-rank job under [attach]ed control, emit [ev] on rank 1
   mid-job, and return every thread's exit code. *)
let exit_codes_after_ras attach ev =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let sched = Ctl.Scheduler.create cluster in
  attach sched;
  ignore
    (Ctl.Scheduler.submit sched ~shape:(2, 1, 1)
       (Job.create ~name:"long" (Image.executable ~name:"long" (fun () -> Coro.consume 4_000_000))));
  (* app threads run from ~2.2M cycles (image load) to ~6.2M *)
  ignore
    (Sim.schedule_at (Cnk.Cluster.sim cluster) 3_000_000 (fun () ->
         Machine.ras_emit (Cnk.Cluster.machine cluster) ~rank:1 ev));
  Ctl.Scheduler.drain sched;
  List.concat_map
    (fun rank -> List.map snd (Cnk.Node.exit_codes (Cnk.Cluster.node cluster rank)))
    [ 0; 1 ]

(* A note whose text reads like the kernel's crash wording kills no job;
   a thread death on rank 1 gang-kills the job spanning it, rank 0's
   threads included. *)
let test_ras_dispatch attach () =
  let run = exit_codes_after_ras attach in
  let codes = run (Machine.Note { severity = Bg_obs.Rasdb.Error; text = "tid 1 crashed: not really" }) in
  check_bool "the job ran" true (codes <> []);
  check_bool "a note that mentions a crash kills nothing" true (List.for_all (( = ) 0) codes);
  let codes = run (Machine.Thread_death { tid = 1; cause = Crashed "Failure(\"boom\")" }) in
  check_bool "the job ran" true (codes <> []);
  check_bool "a thread death kills every thread of the job" true (List.for_all (( = ) 137) codes)

(* The FWK's SIGSEGV death is a thread death like any other. *)
let test_segv_death_kills attach () =
  let codes =
    exit_codes_after_ras attach (Machine.Thread_death { tid = 1; cause = Segv "segfault at 0x0" })
  in
  check_bool "the job ran" true (codes <> []);
  check_bool "a segv death kills every thread of the job" true (List.for_all (( = ) 137) codes)

(* ------------------------------------------------------------------ *)
(* Down nodes in the allocator *)

let test_partition_down_nodes () =
  let p = Ctl.Partition.create ~dims:(4, 1, 1) in
  Ctl.Partition.set_down p ~rank:1 true;
  check_int "down node leaves the pool" 3 (Ctl.Partition.free_nodes p);
  Alcotest.(check (list int)) "down list" [ 1 ] (Ctl.Partition.down_nodes p);
  (* (2,1,1) must land at 2..3: rank 1 is dead and rank 0 alone is too thin *)
  (match Ctl.Partition.allocate p ~shape:(2, 1, 1) with
  | Ok a -> Alcotest.(check (list int)) "skips the dead node" [ 2; 3 ] a.Ctl.Partition.ranks
  | Error e -> Alcotest.fail e);
  (match Ctl.Partition.allocate p ~shape:(2, 1, 1) with
  | Ok _ -> Alcotest.fail "allocated across a down node"
  | Error _ -> ());
  Ctl.Partition.set_down p ~rank:1 false;
  check_bool "revived node fits again" true
    (Result.is_ok (Ctl.Partition.allocate p ~shape:(2, 1, 1)))

(* ------------------------------------------------------------------ *)
(* Dirty-page tracking *)

let test_dirty_tracking () =
  let tr =
    Cnk.Mmap_tracker.create ~base:0x1000_0000 ~bytes:(8 * 1024 * 1024)
      ~main_stack_bytes:(1024 * 1024)
  in
  check_bool "clean at birth" true (Cnk.Mmap_tracker.dirty_ranges tr = []);
  Cnk.Mmap_tracker.mark_dirty tr ~addr:0x1000_0000 ~len:8;
  Cnk.Mmap_tracker.mark_dirty tr ~addr:0x1000_1000 ~len:4096;
  (* adjacent pages coalesce *)
  Alcotest.(check (list (pair int int)))
    "coalesced" [ (0x1000_0000, 8192) ]
    (Cnk.Mmap_tracker.dirty_ranges tr);
  Cnk.Mmap_tracker.mark_dirty tr ~addr:0x1010_0000 ~len:1;
  check_int "two ranges" 2 (List.length (Cnk.Mmap_tracker.dirty_ranges tr));
  check_int "dirty bytes" (3 * 4096) (Cnk.Mmap_tracker.dirty_bytes tr);
  (* out-of-range stores are not state *)
  Cnk.Mmap_tracker.mark_dirty tr ~addr:0x10 ~len:8;
  check_int "clamped" 2 (List.length (Cnk.Mmap_tracker.dirty_ranges tr));
  Cnk.Mmap_tracker.clear_dirty tr;
  check_bool "clear forgets" true (Cnk.Mmap_tracker.dirty_ranges tr = [])

(* ------------------------------------------------------------------ *)
(* Satellite: walltime kill publishes a RAS event *)

let test_walltime_publishes_ras () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let ras = Test_control.attach_rasdb (Cnk.Cluster.machine cluster) in
  let s = Ctl.Scheduler.create cluster in
  let runaway =
    Job.create ~name:"runaway"
      (Image.executable ~name:"runaway" (fun () -> Coro.consume 1_000_000_000))
  in
  let jid = Ctl.Scheduler.submit s ~walltime_cycles:2_000_000 ~shape:(2, 1, 1) runaway in
  Ctl.Scheduler.drain s;
  let expect = Printf.sprintf "SCHED walltime job=%d rank=0" jid in
  check_bool "walltime kill is on the RAS channel" true
    (List.exists
       (fun (e : Bg_obs.Rasdb.record) ->
         e.severity = Bg_obs.Rasdb.Warn
         && String.length e.message >= String.length expect
         && String.sub e.message 0 (String.length expect) = expect)
       (Bg_obs.Rasdb.records ras ()))

(* ------------------------------------------------------------------ *)
(* Satellite: checkpoint restore refuses mismatched regions *)

let test_checkpoint_region_mismatch () =
  let ok = ref false in
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let image =
    Image.executable ~name:"mismatch" (fun () ->
        let a = Bg_rt.Libc.sbrk 8192 in
        Bg_rt.Libc.poke a 41;
        Bg_rt.Libc.poke (a + 4096) 42;
        ignore (Bg_apps.Checkpoint.save ~name:"mm" ~regions:[ (a, 8192) ]);
        Bg_rt.Libc.poke a 1000;
        (* wrong length *)
        let r1 = Bg_apps.Checkpoint.restore ~name:"mm" ~regions:[ (a, 4096) ] in
        (* wrong region count *)
        let r2 =
          Bg_apps.Checkpoint.restore ~name:"mm" ~regions:[ (a, 4096); (a + 4096, 4096) ]
        in
        let untouched = Bg_rt.Libc.peek a = 1000 in
        (* the exact list restores fine *)
        let r3 = Bg_apps.Checkpoint.restore ~name:"mm" ~regions:[ (a, 8192) ] in
        ok :=
          r1 = Error Bg_apps.Checkpoint.Region_mismatch
          && r2 = Error Bg_apps.Checkpoint.Region_mismatch
          && untouched && r3 = Ok () && Bg_rt.Libc.peek a = 41
          && Bg_rt.Libc.peek (a + 4096) = 42)
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"mm" image);
  check_bool "mismatch is explicit and leaves memory alone" true !ok

(* ------------------------------------------------------------------ *)
(* Satellite: Persist.clear (cold boot) and same-VA re-open *)

let test_persist_clear_and_same_va () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let node = Cnk.Cluster.node cluster 0 in
  let va1 = ref 0 and va2 = ref 0 and seen = ref 0 and va3 = ref 0 in
  let job1 =
    Image.executable ~name:"p1" (fun () ->
        va1 := Bg_rt.Libc.shm_open_persistent ~name:"table" ~length:4096;
        Bg_rt.Libc.poke !va1 7777)
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"p1" job1);
  let job2 =
    Image.executable ~name:"p2" (fun () ->
        va2 := Bg_rt.Libc.shm_open_persistent ~name:"table" ~length:4096;
        seen := Bg_rt.Libc.peek !va2)
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"p2" job2);
  check_int "same VA across jobs" !va1 !va2;
  check_int "contents survive the job boundary" 7777 !seen;
  (* cold boot without self-refresh: every name is forgotten *)
  Cnk.Persist.clear (Cnk.Node.persist node);
  check_bool "cleared table finds nothing" true
    (Cnk.Persist.find (Cnk.Node.persist node) ~name:"table" = None);
  check_int "no bytes in use" 0 (Cnk.Persist.used_bytes (Cnk.Node.persist node));
  let job3 =
    Image.executable ~name:"p3" (fun () ->
        va3 := Bg_rt.Libc.shm_open_persistent ~name:"table" ~length:4096)
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"p3" job3);
  check_int "allocator reset: same VA again" !va1 !va3

(* ------------------------------------------------------------------ *)
(* Checkpoint service harness *)

let ckpt_spec ?(strategy = Res.Ckpt.Parity_inplace) ?(steps = 12) ?(ckpt_every = 2)
    ?(state_bytes = 4096) ?(full_every = 1) () =
  {
    Res.Ckpt.name = "resil";
    steps;
    step_cycles = 20_000;
    state_bytes;
    ckpt_every;
    full_every;
    strategy;
  }

let check_outcomes spec outcomes ~ranks =
  check_int "one outcome per logical rank" ranks (List.length outcomes);
  List.iteri
    (fun i (o : Res.Ckpt.outcome) ->
      check_int "logical rank" i o.Res.Ckpt.rank_index;
      check_int "ran to the last step" spec.Res.Ckpt.steps o.Res.Ckpt.final_step;
      check_bool "state digest matches the host mirror" true
        (Fnv.equal o.Res.Ckpt.state_digest
           (Res.Ckpt.expected_digest spec ~rank_index:i)))
    outcomes

(* ------------------------------------------------------------------ *)
(* End to end: node death → detect → reallocate → restore → complete *)

let test_node_death_recovery () =
  let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let sim = Cnk.Cluster.sim cluster in
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  let sched = Ctl.Scheduler.create cluster in
  let inj = Res.Injector.attach cluster in
  let recov = Res.Recovery.attach sched in
  (* image load over the collective network gates thread start by ~2.1M
     cycles, so app steps run from ~2.2M on; kill rank 0 mid-workload,
     after several committed checkpoints *)
  let spec = ckpt_spec ~strategy:Res.Ckpt.Rollback ~steps:30 () in
  let factory, outcomes = Res.Ckpt.job_factory ~fabric spec in
  let jid = Ctl.Scheduler.submit_factory sched ~restart_limit:3 ~shape:(2, 1, 1) factory in
  ignore
    (Sim.schedule_at sim 2_600_000 (fun () ->
         Res.Injector.inject_now inj (Res.Fault_event.Node_death { rank = 0 })));
  Ctl.Scheduler.drain sched;
  (match Ctl.Scheduler.state sched jid with
  | Ctl.Scheduler.Completed _ -> ()
  | _ -> Alcotest.fail "job did not complete after the node death");
  check_int "one death handled" 1 (Res.Recovery.deaths_handled recov);
  check_int "one restart" 1 (Ctl.Scheduler.restarts sched jid);
  Alcotest.(check (list int)) "rank 0 marked down" [ 0 ]
    (Ctl.Partition.down_nodes (Ctl.Scheduler.partition sched));
  Alcotest.(check (list int)) "injector agrees" [ 0 ] (Res.Injector.dead_ranks inj);
  let outcomes = outcomes () in
  check_outcomes spec outcomes ~ranks:2;
  List.iter
    (fun (o : Res.Ckpt.outcome) ->
      check_bool "relaunched clear of the dead node" true (o.Res.Ckpt.machine_rank <> 0);
      check_bool "resumed from a committed checkpoint, not from scratch" true
        (o.Res.Ckpt.restored_step > 0))
    outcomes

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same fault campaign ⇒ identical trace digest *)

let test_fault_campaign_deterministic () =
  let run () =
    let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) ~seed:11L () in
    Cnk.Cluster.boot_all cluster;
    let sim = Cnk.Cluster.sim cluster in
    let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
    let sched = Ctl.Scheduler.create cluster in
    let inj =
      Res.Injector.attach
        ~config:
          {
            Res.Injector.default with
            Res.Injector.parity_mean = 150_000.;
            link_mean = 500_000.;
            horizon = 3_000_000;
          }
        cluster
    in
    ignore (Res.Recovery.attach sched);
    let spec = ckpt_spec ~strategy:Res.Ckpt.Parity_inplace () in
    let factory, outcomes = Res.Ckpt.job_factory ~fabric spec in
    let jid = Ctl.Scheduler.submit_factory sched ~restart_limit:4 ~shape:(2, 1, 1) factory in
    (* one scripted death on top of the Poisson parity/link streams *)
    ignore
      (Sim.schedule_at sim 2_500_000 (fun () ->
           Res.Injector.inject_now inj (Res.Fault_event.Node_death { rank = 1 })));
    Ctl.Scheduler.drain sched;
    let completion =
      match Ctl.Scheduler.state sched jid with
      | Ctl.Scheduler.Completed c -> c
      | _ -> -1
    in
    let digests =
      List.map (fun (o : Res.Ckpt.outcome) -> o.Res.Ckpt.state_digest) (outcomes ())
    in
    ( Fnv.to_hex (Trace.digest (Sim.trace (Cnk.Cluster.sim cluster))),
      completion,
      List.length (Res.Injector.injected inj),
      digests )
  in
  let d1, c1, n1, s1 = run () in
  let d2, c2, n2, s2 = run () in
  Alcotest.(check string) "bit-identical sim trace digest" d1 d2;
  check_int "same completion cycle" c1 c2;
  check_int "same fault count" n1 n2;
  check_bool "faults were actually injected" true (n1 > 0);
  check_bool "same state digests" true (s1 = s2)

(* ------------------------------------------------------------------ *)
(* The paper's cost asymmetry: CNK parity redo vs FWK-style rollback *)

let run_parity_workload strategy =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let sim = Cnk.Cluster.sim cluster in
  let node = Cnk.Cluster.node cluster 0 in
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  let sched = Ctl.Scheduler.create cluster in
  ignore (Res.Recovery.attach sched);
  (* long step consumes so the fault lands inside a step, not a barrier *)
  let spec =
    { (ckpt_spec ~strategy ~steps:20 ~ckpt_every:5 ()) with Res.Ckpt.step_cycles = 100_000 }
  in
  let factory, outcomes = Res.Ckpt.job_factory ~fabric spec in
  let jid = Ctl.Scheduler.submit_factory sched ~restart_limit:4 ~shape:(1, 1, 1) factory in
  (* the same scripted transient fault for both strategies, timed between
     the first and second checkpoint commits; retry until it lands on a
     busy core so neither run quietly dodges it *)
  let rec inject at =
    ignore
      (Sim.schedule_at sim at (fun () ->
           if not (Cnk.Node.inject_l1_parity_error node ~core:0) then inject (at + 5_000)))
  in
  inject 2_900_000;
  Ctl.Scheduler.drain sched;
  let completion =
    match Ctl.Scheduler.state sched jid with
    | Ctl.Scheduler.Completed c -> c
    | _ -> Alcotest.fail "workload did not complete"
  in
  (completion, Ctl.Scheduler.restarts sched jid, outcomes ())

let test_parity_beats_rollback () =
  let cnk_done, cnk_restarts, cnk_out = run_parity_workload Res.Ckpt.Parity_inplace in
  let fwk_done, fwk_restarts, fwk_out = run_parity_workload Res.Ckpt.Rollback in
  let spec = ckpt_spec ~steps:20 ~ckpt_every:5 () in
  check_outcomes spec cnk_out ~ranks:1;
  check_outcomes spec fwk_out ~ranks:1;
  check_int "CNK recovers in place, no restart" 0 cnk_restarts;
  check_bool "FWK must roll back" true (fwk_restarts >= 1);
  check_bool "CNK redid at least one step" true
    ((List.hd cnk_out).Res.Ckpt.parity_redos >= 1);
  check_bool "rollback resumed from a checkpoint" true
    ((List.hd fwk_out).Res.Ckpt.restored_step > 0);
  check_bool
    (Printf.sprintf "in-place recovery is cheaper (cnk=%d fwk=%d)" cnk_done fwk_done)
    true (cnk_done < fwk_done)

(* ------------------------------------------------------------------ *)
(* Incremental checkpoints ship less than full ones *)

let test_delta_checkpoints_smaller () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let fs = Cnk.Cluster.fs cluster in
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  let sched = Ctl.Scheduler.create cluster in
  let spec =
    ckpt_spec ~steps:8 ~ckpt_every:2 ~state_bytes:(64 * 1024) ~full_every:4 ()
  in
  let factory, outcomes = Res.Ckpt.job_factory ~fabric spec in
  ignore (Ctl.Scheduler.submit_factory sched ~shape:(1, 1, 1) factory);
  Ctl.Scheduler.drain sched;
  check_outcomes spec (outcomes ()) ~ranks:1;
  let size path =
    match Bg_cio.Fs.resolve fs ~cwd:"/" path with
    | Ok ino -> Bg_cio.Fs.size fs ino
    | Error _ -> Alcotest.failf "missing %s" path
  in
  (* checkpoints at steps 2, 4, 6: v1 full, v2 and v3 dirty-page deltas *)
  let full = size "/ckpt/resil.r0.f1" in
  let d2 = size "/ckpt/resil.r0.d2" and d3 = size "/ckpt/resil.r0.d3" in
  check_bool "full image carries the whole state" true (full >= 64 * 1024);
  check_bool
    (Printf.sprintf "deltas are much smaller (full=%d d2=%d d3=%d)" full d2 d3)
    true
    (d2 > 0 && d3 > 0 && d2 * 4 < full && d3 * 4 < full)

let suite =
  [
    Alcotest.test_case "ras dispatch: Recovery acts on thread deaths, not text" `Quick
      (test_ras_dispatch (fun s -> ignore (Res.Recovery.attach s)));
    Alcotest.test_case "ras dispatch: Policy acts on thread deaths, not text" `Quick
      (test_ras_dispatch (fun s -> ignore (Res.Policy.attach s)));
    Alcotest.test_case "ras dispatch: Recovery kills on a segv death" `Quick
      (test_segv_death_kills (fun s -> ignore (Res.Recovery.attach s)));
    Alcotest.test_case "ras dispatch: Policy kills on a segv death" `Quick
      (test_segv_death_kills (fun s -> ignore (Res.Policy.attach s)));
    Alcotest.test_case "partition: down nodes excluded" `Quick test_partition_down_nodes;
    Alcotest.test_case "mmap tracker: dirty pages" `Quick test_dirty_tracking;
    Alcotest.test_case "scheduler: walltime kill hits RAS" `Quick
      test_walltime_publishes_ras;
    Alcotest.test_case "checkpoint: region mismatch is explicit" `Quick
      test_checkpoint_region_mismatch;
    Alcotest.test_case "persist: clear + same VA across jobs" `Quick
      test_persist_clear_and_same_va;
    Alcotest.test_case "recovery: node death end to end" `Quick test_node_death_recovery;
    Alcotest.test_case "fault campaign: deterministic" `Quick
      test_fault_campaign_deterministic;
    Alcotest.test_case "parity in place beats rollback" `Quick test_parity_beats_rollback;
    Alcotest.test_case "incremental checkpoints are smaller" `Quick
      test_delta_checkpoints_smaller;
  ]
