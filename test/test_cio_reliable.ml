(* Tests for the reliable function-ship transport: CRC framing, hostile
   Proto decoding, retransmission under drop/corruption/duplication, the
   CIOD replay cache (write idempotency), crash/restart recovery from the
   job manifest, bounded-queue load shedding, and EIO surfacing when the
   retry budget runs out. *)

open Bg_engine
open Bg_kabi
open Bg_cio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Frame *)

let sample_frame =
  {
    Frame.kind = Frame.Request;
    rank = 11;
    pid = 2;
    tid = 35;
    seq = 7;
    ctx = 0;
    payload = Bytes.of_string "function-shipped request body";
  }

let test_frame_roundtrip () =
  List.iter
    (fun f ->
      match Frame.decode (Frame.encode f) with
      | Ok f' ->
        check_bool "kind" true (f'.Frame.kind = f.Frame.kind);
        check_int "rank" f.Frame.rank f'.Frame.rank;
        check_int "pid" f.Frame.pid f'.Frame.pid;
        check_int "tid" f.Frame.tid f'.Frame.tid;
        check_int "seq" f.Frame.seq f'.Frame.seq;
        Alcotest.(check bytes) "payload" f.Frame.payload f'.Frame.payload
      | Error e -> Alcotest.fail (Frame.error_message e))
    [
      sample_frame;
      { sample_frame with Frame.kind = Frame.Reply; seq = 0 };
      { sample_frame with Frame.kind = Frame.Ack; payload = Bytes.create 0 };
    ]

let test_frame_every_bit_flip_detected () =
  let encoded = Frame.encode sample_frame in
  for bit = 0 to (Bytes.length encoded * 8) - 1 do
    let copy = Bytes.copy encoded in
    let i = bit / 8 in
    Bytes.set_uint8 copy i (Bytes.get_uint8 copy i lxor (1 lsl (bit mod 8)));
    match Frame.decode copy with
    | Ok _ -> Alcotest.failf "bit flip %d went undetected" bit
    | Error _ -> ()
  done

let test_frame_truncation_detected () =
  let encoded = Frame.encode sample_frame in
  for len = 0 to Bytes.length encoded - 1 do
    match Frame.decode (Bytes.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d went undetected" len
    | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Proto fuzz: hostile bytes must yield typed errors, never exceptions *)

let fuzz_corpus () =
  let hdr = { Proto.rank = 3; pid = 1; tid = 9 } in
  let valid =
    [
      Proto.encode_request hdr (Sysreq.Open { path = "/a/b"; flags = Sysreq.o_rdwr; mode = 0o600 });
      Proto.encode_request hdr (Sysreq.Write { fd = 4; data = Bytes.of_string "payload" });
      Proto.encode_request hdr (Sysreq.Readdir "/");
      Proto.encode_reply hdr (Sysreq.R_bytes (Bytes.of_string "reply data"));
      Proto.encode_reply hdr (Sysreq.R_names [ "x"; "y"; "z" ]);
      Proto.encode_reply hdr (Sysreq.R_err Errno.ENOENT);
    ]
  in
  let rng = Rng.create 42L in
  let corpus = ref [] in
  List.iter
    (fun good ->
      (* every truncation *)
      for len = 0 to Bytes.length good - 1 do
        corpus := Bytes.sub good 0 len :: !corpus
      done;
      (* seeded single- and multi-bit corruptions *)
      for _ = 1 to 200 do
        let c = Bytes.copy good in
        let flips = 1 + Rng.int rng 4 in
        for _ = 1 to flips do
          let bit = Rng.int rng (Bytes.length c * 8) in
          Bytes.set_uint8 c (bit / 8)
            (Bytes.get_uint8 c (bit / 8) lxor (1 lsl (bit mod 8)))
        done;
        corpus := c :: !corpus
      done)
    valid;
  (* pure noise *)
  for _ = 1 to 300 do
    let len = Rng.int rng 120 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    corpus := b :: !corpus
  done;
  !corpus

let test_proto_fuzz_never_raises () =
  List.iter
    (fun data ->
      (match Proto.decode_request data with Ok _ | Error (Proto.Malformed _) -> ());
      match Proto.decode_reply data with Ok _ | Error (Proto.Malformed _) -> ())
    (fuzz_corpus ())

let test_proto_truncated_is_malformed () =
  let hdr = { Proto.rank = 0; pid = 1; tid = 1 } in
  let good = Proto.encode_request hdr (Sysreq.Stat "/etc/motd") in
  for len = 0 to Bytes.length good - 1 do
    match Proto.decode_request (Bytes.sub good 0 len) with
    | Ok _ -> Alcotest.failf "truncated request of %d bytes decoded" len
    | Error (Proto.Malformed _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Ioproxy snapshot / idempotent close *)

let test_ioproxy_close_all_idempotent () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  ignore (Ioproxy.handle p (Sysreq.Open { path = "f"; flags = Sysreq.o_create_trunc; mode = 0o644 }));
  check_int "one fd" 1 (Ioproxy.open_fds p);
  Ioproxy.close_all p;
  check_bool "closed" true (Ioproxy.closed p);
  Ioproxy.close_all p;
  (* second teardown is a no-op, and the proxy refuses further work *)
  check_int "no fds" 0 (Ioproxy.open_fds p);
  match Ioproxy.handle p (Sysreq.Getcwd) with
  | Sysreq.R_err Errno.EBADF -> ()
  | _ -> Alcotest.fail "closed proxy accepted a request"

let test_ioproxy_snapshot_restore () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  ignore (Ioproxy.handle p (Sysreq.Mkdir { path = "/d"; mode = 0o755 }));
  ignore (Ioproxy.handle p (Sysreq.Chdir "/d"));
  let fd =
    Sysreq.expect_int
      (Ioproxy.handle p (Sysreq.Open { path = "f"; flags = Sysreq.o_create_trunc; mode = 0o644 }))
  in
  ignore (Ioproxy.handle p (Sysreq.Write { fd; data = Bytes.of_string "abcde" }));
  let snap = Ioproxy.snapshot p in
  let q = Ioproxy.restore fs ~rank:0 ~pid:1 snap in
  Alcotest.(check string) "cwd survives" "/d" (Ioproxy.cwd q);
  check_int "fd table survives" 1 (Ioproxy.open_fds q);
  (* the restored offset continues where the original left off *)
  check_int "append continues" 3
    (Sysreq.expect_int (Ioproxy.handle q (Sysreq.Write { fd; data = Bytes.of_string "fgh" })));
  let inode = Result.get_ok (Fs.resolve fs ~cwd:"/" "/d/f") in
  Alcotest.(check string) "contents" "abcdefgh"
    (Bytes.to_string (Result.get_ok (Fs.read fs inode ~offset:0 ~len:100)))

(* ------------------------------------------------------------------ *)
(* Manifest: ack keeps the seq watermark, reclaims only the frame *)

let test_manifest_ack_keeps_watermark () =
  let m = Manifest.create () in
  Manifest.record_reply m ~rank:0 ~pid:1 ~tid:2 ~seq:5 ~frame:(Bytes.of_string "r5");
  (match Manifest.last_reply m ~rank:0 ~pid:1 ~tid:2 with
  | Some (5, Some f) -> Alcotest.(check string) "frame cached" "r5" (Bytes.to_string f)
  | _ -> Alcotest.fail "expected cached frame at seq 5");
  (* a stale ack is a no-op *)
  Manifest.retire_reply m ~rank:0 ~pid:1 ~tid:2 ~seq:4;
  (match Manifest.last_reply m ~rank:0 ~pid:1 ~tid:2 with
  | Some (5, Some _) -> ()
  | _ -> Alcotest.fail "stale ack must not retire");
  Manifest.retire_reply m ~rank:0 ~pid:1 ~tid:2 ~seq:5;
  match Manifest.last_reply m ~rank:0 ~pid:1 ~tid:2 with
  | Some (5, None) -> ()
  | _ -> Alcotest.fail "ack must keep the seq watermark and drop only the bytes"

(* ------------------------------------------------------------------ *)
(* Ack reordered ahead of a straggling duplicate: the duplicate must be
   recognised via the acked-seq watermark, never re-executed. This is the
   jitter-inversion race: the Ack leaves ~epsilon after a timeout
   retransmit, so even modest network jitter can deliver it first. *)

let test_ack_before_duplicate_no_reexecution () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let ciod = Ciod.create machine ~config:Reliable.default_on ~io_node:0 () in
  let replies = ref 0 in
  Ciod.register_node ciod ~rank:0 ~deliver:(fun _ -> incr replies);
  Ciod.job_start ciod ~rank:0 ~pids:[ 1 ];
  let sim = machine.Machine.sim in
  let request req ~seq =
    Frame.encode
      {
        Frame.kind = Frame.Request;
        rank = 0;
        pid = 1;
        tid = 1;
        seq;
        ctx = 0;
        payload = Proto.encode_request { Proto.rank = 0; pid = 1; tid = 1 } req;
      }
  in
  Ciod.submit ciod
    (request (Sysreq.Open { path = "f"; flags = Sysreq.o_create_trunc; mode = 0o644 })
       ~seq:0);
  ignore (Sim.run sim);
  let write = request (Sysreq.Write { fd = 3; data = Bytes.of_string "once" }) ~seq:1 in
  Ciod.submit ciod write;
  ignore (Sim.run sim);
  check_int "open + write served" 2 (Ciod.requests_served ciod);
  check_int "both replied" 2 !replies;
  (* The Ack for the write overtakes a straggling duplicate of it. *)
  Ciod.submit ciod
    (Frame.encode
       { Frame.kind = Frame.Ack; rank = 0; pid = 1; tid = 1; seq = 1; ctx = 0;
         payload = Bytes.create 0 });
  Ciod.submit ciod write;
  ignore (Sim.run sim);
  check_int "duplicate suppressed by watermark" 2 (Ciod.requests_served ciod);
  check_int "counted as retransmit" 1 (Ciod.retransmits_seen ciod);
  check_int "no reply for a sender no longer waiting" 2 !replies;
  let fs = Ciod.fs ciod in
  let inode = Result.get_ok (Fs.resolve fs ~cwd:"/" "/f") in
  Alcotest.(check string) "no double append" "once"
    (Bytes.to_string (Result.get_ok (Fs.read fs inode ~offset:0 ~len:100)))

(* ------------------------------------------------------------------ *)
(* Legacy (lossless) transport: a crashed daemon drops submissions
   instead of servicing them against freshly-reset proxies. *)

let test_legacy_transport_dead_ciod_drops () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let ciod = Ciod.create machine ~io_node:0 () in
  let replies = ref 0 in
  Ciod.register_node ciod ~rank:0 ~deliver:(fun _ -> incr replies);
  Ciod.job_start ciod ~rank:0 ~pids:[ 1 ];
  Ciod.crash ciod;
  let req =
    Proto.encode_request { Proto.rank = 0; pid = 1; tid = 1 }
      (Sysreq.Open { path = "f"; flags = Sysreq.o_create_trunc; mode = 0o644 })
  in
  Ciod.submit ciod req;
  ignore (Sim.run machine.Machine.sim);
  check_int "dead daemon serves nothing" 0 (Ciod.requests_served ciod);
  check_int "no reply from the dead" 0 !replies;
  Ciod.restart ciod;
  Ciod.submit ciod req;
  ignore (Sim.run machine.Machine.sim);
  check_int "served after restart" 1 (Ciod.requests_served ciod);
  check_int "replied after restart" 1 !replies

(* ------------------------------------------------------------------ *)
(* End-to-end harness *)

let chunk_bytes = 512
let chunks = 4

let expected_content rank =
  let b = Buffer.create (chunk_bytes * chunks) in
  for chunk = 0 to chunks - 1 do
    Buffer.add_bytes b (Bytes.make chunk_bytes (Char.chr (65 + ((rank + chunk) mod 26))))
  done;
  Buffer.contents b

(* Per-rank writer + read-back verifier; strictly per-rank files so
   fault-induced reordering across ranks cannot change any file's bytes. *)
let workload () =
  let rank = Bg_rt.Libc.rank () in
  let path = Printf.sprintf "/rank-%02d.dat" rank in
  let fd =
    Bg_rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true; trunc = true } path
  in
  for chunk = 0 to chunks - 1 do
    let payload = Bytes.make chunk_bytes (Char.chr (65 + ((rank + chunk) mod 26))) in
    assert (Bg_rt.Libc.write fd payload = chunk_bytes)
  done;
  Bg_rt.Libc.fsync fd;
  let back = Bg_rt.Libc.pread fd ~len:(chunk_bytes * chunks) ~offset:0 in
  assert (Bytes.to_string back = expected_content rank);
  Bg_rt.Libc.close fd

let file_content cluster rank =
  let fs = Cnk.Cluster.fs cluster in
  let inode =
    Result.get_ok (Fs.resolve fs ~cwd:"/" (Printf.sprintf "/rank-%02d.dat" rank))
  in
  Bytes.to_string (Result.get_ok (Fs.read fs inode ~offset:0 ~len:(Fs.size fs inode)))

let run_cluster ?(seed = 1L) ?(cio = Reliable.default_on) ?(faults = Bg_hw.Collective_net.no_faults)
    ?before_run () =
  let cluster = Cnk.Cluster.create ~seed ~dims:(2, 2, 1) ~nodes_per_io_node:2 ~cio () in
  Cnk.Cluster.boot_all cluster;
  let machine = Cnk.Cluster.machine cluster in
  Bg_obs.Obs.set_enabled machine.Machine.obs true;
  Bg_hw.Collective_net.set_fault_config machine.Machine.collective faults;
  (match before_run with Some f -> f cluster | None -> ());
  let image = Image.executable ~name:"chaos" workload in
  Cnk.Cluster.run_job cluster (Job.create ~name:"chaos" image);
  cluster

let check_all_files cluster =
  for rank = 0 to 3 do
    Alcotest.(check string)
      (Printf.sprintf "rank %d file" rank)
      (expected_content rank) (file_content cluster rank)
  done

let test_reliable_mode_faultless () =
  (* Sanity: the framed transport with no faults behaves like the raw one. *)
  let cluster = run_cluster () in
  check_all_files cluster;
  let ciod = Cnk.Cluster.ciod cluster ~io_node:0 in
  check_bool "requests served" true (Ciod.requests_served ciod > 0);
  check_int "no retransmits seen" 0 (Ciod.retransmits_seen ciod)

let test_retransmission_under_drop () =
  let faults = { Bg_hw.Collective_net.no_faults with Bg_hw.Collective_net.drop_rate = 0.2 } in
  let cluster = run_cluster ~faults () in
  check_all_files cluster;
  let machine = Cnk.Cluster.machine cluster in
  check_bool "drops occurred" true (Bg_hw.Collective_net.drops machine.Machine.collective > 0);
  let o = machine.Machine.obs in
  check_bool "retransmits happened" true
    (Bg_obs.Obs.counter_total o ~subsystem:"cio" ~name:"retransmits" > 0);
  check_int "no EIO" 0 (Bg_obs.Obs.counter_total o ~subsystem:"cio" ~name:"eio")

let test_write_idempotent_under_duplication () =
  let faults = { Bg_hw.Collective_net.no_faults with Bg_hw.Collective_net.dup_rate = 0.5 } in
  let cluster = run_cluster ~faults () in
  (* Duplicated requests re-execute nothing: every file has exactly its
     expected bytes, no double-append. *)
  check_all_files cluster;
  let machine = Cnk.Cluster.machine cluster in
  check_bool "duplicates injected" true
    (Bg_hw.Collective_net.duplicates machine.Machine.collective > 0);
  let dups_seen =
    Ciod.retransmits_seen (Cnk.Cluster.ciod cluster ~io_node:0)
    + Ciod.retransmits_seen (Cnk.Cluster.ciod cluster ~io_node:1)
  in
  check_bool "replay cache hit" true (dups_seen > 0)

let test_corruption_detected_and_retried () =
  let faults =
    { Bg_hw.Collective_net.no_faults with Bg_hw.Collective_net.corrupt_rate = 0.25 }
  in
  let cluster = run_cluster ~faults () in
  check_all_files cluster;
  let machine = Cnk.Cluster.machine cluster in
  check_bool "corruptions injected" true
    (Bg_hw.Collective_net.corruptions machine.Machine.collective > 0)

let trace_digest cluster =
  Fnv.to_hex (Trace.digest (Sim.trace (Cnk.Cluster.sim cluster)))

let test_chaos_run_deterministic () =
  let faults =
    {
      Bg_hw.Collective_net.drop_rate = 0.15;
      corrupt_rate = 0.1;
      dup_rate = 0.1;
      jitter_max = 300;
    }
  in
  let a = run_cluster ~faults () in
  let b = run_cluster ~faults () in
  check_all_files a;
  Alcotest.(check string) "same digest" (trace_digest a) (trace_digest b)

let test_ciod_crash_restart_e2e () =
  let crash_at = 50_000 and restart_at = 170_000 in
  let cluster =
    run_cluster
      ~faults:{ Bg_hw.Collective_net.no_faults with Bg_hw.Collective_net.drop_rate = 0.05 }
      ~before_run:(fun cluster ->
        let sim = Cnk.Cluster.sim cluster in
        let ciod = Cnk.Cluster.ciod cluster ~io_node:0 in
        ignore (Sim.schedule_in sim crash_at (fun () -> Ciod.crash ciod));
        ignore (Sim.schedule_in sim restart_at (fun () -> Ciod.restart ciod)))
      ()
  in
  (* The daemon died mid-job and came back from the manifest; every rank's
     file must still be byte-perfect. *)
  check_all_files cluster;
  let ciod = Cnk.Cluster.ciod cluster ~io_node:0 in
  check_int "one crash" 1 (Ciod.crashes ciod)

let test_bounded_queue_sheds_and_recovers () =
  let cio = { Reliable.default_on with Reliable.queue_limit = 1; rto_cycles = 20_000 } in
  let cluster = run_cluster ~cio () in
  (* With a queue bound of 1, concurrent ranks behind one I/O node force
     rejects; timeouts re-drive them and the job still completes. *)
  check_all_files cluster;
  let rejects =
    Ciod.queue_rejects (Cnk.Cluster.ciod cluster ~io_node:0)
    + Ciod.queue_rejects (Cnk.Cluster.ciod cluster ~io_node:1)
  in
  check_bool "queue shed load" true (rejects > 0)

let test_eio_after_retry_budget () =
  let cio =
    { Reliable.default_on with Reliable.rto_cycles = 5_000; retry_budget = 3 }
  in
  let cluster = Cnk.Cluster.create ~seed:1L ~dims:(2, 1, 1) ~nodes_per_io_node:2 ~cio () in
  Cnk.Cluster.boot_all cluster;
  let machine = Cnk.Cluster.machine cluster in
  Bg_obs.Obs.set_enabled machine.Machine.obs true;
  (* Total loss: nothing ever reaches the I/O node. *)
  Bg_hw.Collective_net.set_fault_config machine.Machine.collective
    { Bg_hw.Collective_net.no_faults with Bg_hw.Collective_net.drop_rate = 1.0 };
  let ras_budget_exhausted = ref 0 in
  Machine.on_ras machine (fun ~rank:_ -> function
      | Machine.Note { severity = Bg_obs.Rasdb.Error; text; _ } ->
        let has sub =
          let n = String.length sub and m = String.length text in
          let rec at i = i + n <= m && (String.sub text i n = sub || at (i + 1)) in
          at 0
        in
        if has "retry budget exhausted" then incr ras_budget_exhausted
      | _ -> ());
  let got_eio = ref 0 in
  let program () =
    (try ignore (Bg_rt.Libc.openf ~flags:Sysreq.o_create_trunc "f") with
    | Sysreq.Syscall_error Errno.EIO -> incr got_eio)
  in
  let image = Image.executable ~name:"eio" program in
  Cnk.Cluster.run_job cluster (Job.create ~name:"eio" image);
  check_int "both ranks got EIO" 2 !got_eio;
  check_bool "RAS events emitted" true (!ras_budget_exhausted >= 2);
  check_int "obs counter" 2
    (Bg_obs.Obs.counter_total machine.Machine.obs ~subsystem:"cio" ~name:"eio")

(* ------------------------------------------------------------------ *)
(* Fatal CIOD crash escalates to pset-wide job failure *)

let test_fatal_ciod_crash_fails_pset () =
  let cluster = Cnk.Cluster.create ~seed:1L ~dims:(2, 2, 1) ~nodes_per_io_node:2
      ~cio:Reliable.default_on ()
  in
  Cnk.Cluster.boot_all cluster;
  let scheduler = Bg_control.Scheduler.create cluster in
  let recovery = Bg_resilience.Recovery.attach scheduler in
  let injector = Bg_resilience.Injector.attach cluster in
  let sim = Cnk.Cluster.sim cluster in
  ignore
    (Sim.schedule_in sim 50_000 (fun () ->
         Bg_resilience.Injector.inject_now injector
           (Bg_resilience.Fault_event.Ciod_crash { io_node = 0; fatal = true })));
  let image = Image.executable ~name:"w" workload in
  ignore
    (Bg_control.Scheduler.submit scheduler ~shape:(2, 2, 1)
       (Job.create ~name:"doomed" image));
  Bg_control.Scheduler.drain scheduler;
  check_int "pset escalated" 1 (Bg_resilience.Recovery.psets_lost recovery);
  (* both compute nodes of the dead pset are out of the allocation pool *)
  let partition = Bg_control.Scheduler.partition scheduler in
  check_bool "rank 0 down" true (Bg_control.Partition.is_down partition ~rank:0);
  check_bool "rank 1 down" true (Bg_control.Partition.is_down partition ~rank:1);
  check_bool "rank 2 alive" false (Bg_control.Partition.is_down partition ~rank:2)

let suite =
  [
    Alcotest.test_case "frame: roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: every bit flip detected" `Quick
      test_frame_every_bit_flip_detected;
    Alcotest.test_case "frame: truncation detected" `Quick test_frame_truncation_detected;
    Alcotest.test_case "proto: fuzz corpus never raises" `Quick test_proto_fuzz_never_raises;
    Alcotest.test_case "proto: truncations are Malformed" `Quick
      test_proto_truncated_is_malformed;
    Alcotest.test_case "ioproxy: close_all idempotent" `Quick
      test_ioproxy_close_all_idempotent;
    Alcotest.test_case "ioproxy: snapshot/restore" `Quick test_ioproxy_snapshot_restore;
    Alcotest.test_case "manifest: ack keeps seq watermark" `Quick
      test_manifest_ack_keeps_watermark;
    Alcotest.test_case "ciod: ack before duplicate, no re-execution" `Quick
      test_ack_before_duplicate_no_reexecution;
    Alcotest.test_case "ciod: legacy transport drops while dead" `Quick
      test_legacy_transport_dead_ciod_drops;
    Alcotest.test_case "reliable: faultless e2e" `Quick test_reliable_mode_faultless;
    Alcotest.test_case "reliable: retransmission under 20% drop" `Quick
      test_retransmission_under_drop;
    Alcotest.test_case "reliable: write idempotent under duplication" `Quick
      test_write_idempotent_under_duplication;
    Alcotest.test_case "reliable: corruption detected + retried" `Quick
      test_corruption_detected_and_retried;
    Alcotest.test_case "reliable: chaos run deterministic" `Quick
      test_chaos_run_deterministic;
    Alcotest.test_case "reliable: CIOD crash/restart e2e" `Quick
      test_ciod_crash_restart_e2e;
    Alcotest.test_case "reliable: bounded queue sheds + recovers" `Quick
      test_bounded_queue_sheds_and_recovers;
    Alcotest.test_case "reliable: EIO after retry budget" `Quick
      test_eio_after_retry_budget;
    Alcotest.test_case "reliable: fatal CIOD crash fails pset" `Quick
      test_fatal_ciod_crash_fails_pset;
  ]
