(* Tests for the CNK job lifecycle's host-side bookkeeping: the program
   text each launch writes, what a finished job leaves reachable, job
   completion on a node that is never reset, a launch refused before it
   changes any state, and CIOD job end touching only the ending rank. *)

open Bg_engine
open Bg_kabi
open Cnk
module Ciod = Bg_cio.Ciod
module Manifest = Bg_cio.Manifest
module Rt = Bg_rt

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let booted_cluster ?(dims = (1, 1, 1)) () =
  let cluster = Cluster.create ~dims () in
  Cluster.boot_all cluster;
  cluster

(* ------------------------------------------------------------------ *)
(* Program text *)

let check_text node ~pid image len =
  Alcotest.(check bytes)
    (Printf.sprintf "rank %d pid %d text" (Node.rank node) pid)
    (Node.image_pattern image len)
    (Node.read_virtual node ~pid ~addr:Mapping.text_va ~len)

(* Every process of every node holds its own image's text, including
   when consecutive jobs share a name but not a text length. *)
let test_every_process_holds_its_text () =
  let cluster = booted_cluster ~dims:(2, 1, 1) () in
  let vn = Image.executable ~name:"vn" (fun () -> ()) in
  Cluster.run_job cluster (Job.create ~mode:Job.Vn ~name:"vn" vn);
  Array.iter
    (fun node -> List.iter (fun pid -> check_text node ~pid vn 4096) [ 1; 2; 3; 4 ])
    (Cluster.nodes cluster);
  let short = Image.executable ~name:"vn" ~text_bytes:100 (fun () -> ()) in
  Cluster.run_job cluster (Job.create ~mode:Job.Dual ~name:"short" short);
  Array.iter
    (fun node ->
      List.iter (fun pid -> check_text node ~pid vn 4096) [ 1; 2; 3; 4 ];
      List.iter (fun pid -> check_text node ~pid short 100) [ 5; 6 ])
    (Cluster.nodes cluster)

(* Run a job of a fresh image and return a weak pointer to the image.
   Kept out of line so no register or stack slot of the caller holds it. *)
let[@inline never] run_tracked_job cluster =
  let weak = Weak.create 1 in
  let image = Image.executable ~name:"tracked" (fun () -> ()) in
  Weak.set weak 0 (Some image);
  Cluster.run_job cluster (Job.create ~name:"tracked" image);
  weak

(* A finished job is garbage once its node resets, though the machine
   lives on: nothing machine-wide (the launch text entry among them)
   may keep the image. Before the reset the exited processes still hold
   it. *)
let test_finished_job_is_collectable () =
  (* A cold reset zeroes DRAM; a reproducible one keeps it in
     self-refresh, and with it the job's deferred text write, whose draw
     must not hold the image either. *)
  List.iter
    (fun reproducible ->
      let what = if reproducible then " (self-refresh)" else "" in
      let cluster = booted_cluster () in
      let weak = run_tracked_job cluster in
      Gc.full_major ();
      check_bool ("exited processes hold the job until reset" ^ what) true (Weak.check weak 0);
      let node = Cluster.node cluster 0 in
      Node.prepare_and_reset node ~reproducible ~on_ready:ignore;
      Cluster.run_until_quiet cluster;
      check_bool ("rebooted" ^ what) true (Node.booted node);
      Gc.full_major ();
      check_bool ("image collected after reset" ^ what) false (Weak.check weak 0);
      (* the machine is still live and still runs jobs *)
      Cluster.run_job cluster (Job.create ~name:"after" (Image.executable ~name:"after" ignore));
      check_int ("machine live" ^ what) 1 (Machine.nodes (Cluster.machine cluster)))
    [ false; true ]

(* A launch defers its text write, so launching on a node whose DRAM
   was never written allocates no 64 KiB chunk (8,193 words) and draws no
   4 KiB pattern (513 words); both go straight to the major heap. An
   eager write would put a chunk per process there, 32,776 words for
   this VN launch. Node 0 runs the same job first, so only node 1's own
   first-launch work is left, and it stays in the minor heap.
   [Gc.counters] is read rather than [Gc.quick_stat], which does not
   count a direct major allocation until the next collection. *)
let test_launch_allocates_no_major_words () =
  let cluster = booted_cluster ~dims:(2, 1, 1) () in
  let image = Image.executable ~name:"major" (fun () -> Coro.consume 1_000) in
  let launch rank =
    match Node.launch (Cluster.node cluster rank) (Job.create ~mode:Job.Vn ~name:"m" image) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "launch on rank %d: %s" rank e
  in
  launch 0;
  Cluster.run_until_quiet cluster;
  Gc.minor ();
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  launch 1;
  let words = major_words () -. before in
  if words > 256. then Alcotest.failf "a warm launch on a fresh node put %.0f words on the major heap" words;
  Cluster.run_until_quiet cluster;
  List.iter (fun pid -> check_text (Cluster.node cluster 1) ~pid image 4096) [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Job completion *)

(* Each process spins for a time that falls as its pid rises, so the
   last process launched exits first. *)
let reverse_exit_image =
  Image.executable ~name:"reverse" (fun () ->
      let pid = Rt.Libc.getpid () in
      Coro.consume (1_000_000 - (pid * 1_000)))

(* 200 jobs back to back, no reset in between: exited processes pile up
   in the node, and completion must still fire exactly once per job. *)
let test_completion_once_per_job () =
  let cluster = booted_cluster () in
  let node = Cluster.node cluster 0 in
  let fired = ref 0 and launched = ref 0 in
  let plain = Image.executable ~name:"plain" (fun () -> Coro.consume 1_000) in
  for k = 1 to 200 do
    let mode = match k mod 3 with 0 -> Job.Smp | 1 -> Job.Dual | _ -> Job.Vn in
    let reverse = k mod 10 = 0 in
    let image = if reverse then reverse_exit_image else plain in
    let first_pid = !launched + 1 in
    Node.on_job_complete node (fun () -> incr fired);
    (match Node.launch node (Job.create ~mode ~name:"j" image) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "job %d: %s" k e);
    launched := !launched + Job.processes_per_node mode;
    Cluster.run_until_quiet cluster;
    check_int (Printf.sprintf "job %d completed once" k) k !fired;
    check_bool "idle after completion" false (Node.job_active node);
    if reverse then
      Alcotest.(check (list int))
        (Printf.sprintf "job %d exit order" k)
        (List.rev (List.init (Job.processes_per_node mode) (fun i -> first_pid + i)))
        (List.map fst (Node.exit_codes node))
  done;
  check_int "every process kept until reset" !launched (Node.process_count node)

(* ------------------------------------------------------------------ *)
(* Launch refusal *)

(* With a mapping budget above what a core's TLB holds, a large job
   maps fine but cannot be installed: launch must say so before it
   touches the node, and the node must then run an ordinary job. *)
let test_oversized_launch_is_refused () =
  let capacity = Bg_hw.Params.bgp.Bg_hw.Params.tlb_entries in
  let mapping_config = { Mapping.default_config with Mapping.tlb_budget = 200 } in
  let cluster = Cluster.create ~mapping_config ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let node = Cluster.node cluster 0 in
  let mb = 1024 * 1024 in
  let big_job =
    Job.create ~shared_bytes:(31 * mb) ~name:"big"
      (Image.executable ~name:"big" ~text_bytes:(31 * mb) ~data_bytes:(31 * mb) ignore)
  in
  let ran = ref false in
  let small_job = Job.create ~name:"small" (Image.executable ~name:"small" (fun () -> ran := true)) in
  let entries (job : Job.t) =
    let image = job.Job.image in
    match
      Mapping.compute
        {
          mapping_config with
          Mapping.text_bytes = image.Image.text_bytes;
          data_bytes = image.Image.data_bytes;
          shared_bytes = job.Job.shared_bytes;
        }
    with
    | Ok m -> m.Mapping.entries_per_core
    | Error e -> Alcotest.failf "mapping: %s" e
  in
  check_bool "budget exceeds the TLB" true (mapping_config.Mapping.tlb_budget > capacity);
  check_bool "big map overflows the TLB" true (entries big_job > capacity);
  check_bool "small map fits" true (entries small_job <= capacity);
  (match Node.launch node big_job with
  | Ok () -> Alcotest.fail "an oversized static map launched"
  | Error msg ->
    Alcotest.(check string)
      "reason"
      (Printf.sprintf
         "CNK static map install failed: static map of %d entries exceeds TLB capacity %d"
         (entries big_job) capacity)
      msg);
  check_bool "no job active" false (Node.job_active node);
  check_int "no process created" 0 (Node.process_count node);
  check_int "no proxy created" 0 (Ciod.proxy_count (Cluster.ciod_for cluster ~rank:0));
  Cluster.run_job cluster small_job;
  check_bool "ordinary job ran" true !ran;
  Alcotest.(check (list (pair int int))) "first pid, clean exit" [ (1, 0) ]
    (Node.exit_codes node)

(* ------------------------------------------------------------------ *)
(* CIOD job end *)

(* Everything the manifest holds for one rank's processes, as bytes:
   listed pids, proxy snapshots and cached replies. *)
let rank_state ciod ~rank ~pids ~tids =
  let m = Ciod.manifest ciod in
  let b = Buffer.create 256 in
  List.iter
    (fun (r, pid) -> if r = rank then Buffer.add_string b (Printf.sprintf "proc %d;" pid))
    (Manifest.procs m);
  List.iter
    (fun pid ->
      (match Manifest.proxy_snapshot m ~rank ~pid with
      | Some snap -> Bg_cio.Ioproxy.capture_snapshot snap b
      | None -> Buffer.add_string b "no proxy;");
      List.iter
        (fun tid ->
          match Manifest.last_reply m ~rank ~pid ~tid with
          | Some (seq, Some frame) ->
            Buffer.add_string b (Printf.sprintf "reply %d %d;" seq (Bytes.length frame));
            Buffer.add_bytes b frame
          | Some (seq, None) -> Buffer.add_string b (Printf.sprintf "acked %d;" seq)
          | None -> Buffer.add_string b "no reply;")
        tids)
    pids;
  Buffer.contents b

let test_ciod_job_end_keeps_other_ranks () =
  let machine = Machine.create ~dims:(4, 1, 1) () in
  let ciod = Ciod.create machine ~config:Bg_cio.Reliable.default_on ~io_node:0 () in
  let ranks = [ 0; 1; 2 ] and pids = [ 1; 2 ] and tids = [ 1; 2 ] in
  let replies = Hashtbl.create 16 in
  List.iter
    (fun rank ->
      Ciod.register_node ciod ~rank ~deliver:(fun framed ->
          match Bg_cio.Frame.decode framed with
          | Ok f -> (
            match Bg_cio.Proto.decode_reply f.Bg_cio.Frame.payload with
            | Ok (hdr, reply) ->
              Hashtbl.replace replies (rank, hdr.Bg_cio.Proto.pid, hdr.Bg_cio.Proto.tid) reply
            | Error _ -> Alcotest.fail "undecodable reply")
          | Error _ -> Alcotest.fail "corrupt reply frame");
      Ciod.job_start ciod ~rank ~pids)
    ranks;
  let seq = ref 0 in
  let submit ~rank ~pid ~tid req =
    incr seq;
    Ciod.submit ciod
      (Bg_cio.Frame.encode
         {
           Bg_cio.Frame.kind = Bg_cio.Frame.Request;
           rank;
           pid;
           tid;
           seq = !seq;
           ctx = 0;
           payload = Bg_cio.Proto.encode_request { Bg_cio.Proto.rank; pid; tid } req;
         });
    ignore (Sim.run machine.Machine.sim)
  in
  let write ~rank ~pid ~tid text =
    submit ~rank ~pid ~tid (Sysreq.Write { fd = 3; data = Bytes.of_string text })
  in
  List.iter
    (fun rank ->
      List.iter
        (fun pid ->
          submit ~rank ~pid ~tid:1
            (Sysreq.Open
               {
                 path = Printf.sprintf "r%dp%d" rank pid;
                 flags = Sysreq.o_create_trunc;
                 mode = 0o644;
               });
          write ~rank ~pid ~tid:2 "payload")
        pids)
    ranks;
  let state rank = rank_state ciod ~rank ~pids ~tids in
  let before = List.map state ranks in
  let empty = rank_state ciod ~rank:3 ~pids ~tids in
  check_int "six proxies" 6 (Ciod.proxy_count ciod);
  Ciod.job_end ciod ~rank:1;
  check_int "rank 1's proxies gone" 4 (Ciod.proxy_count ciod);
  Alcotest.(check (list string))
    "only rank 1's manifest entries dropped"
    [ List.nth before 0; empty; List.nth before 2 ]
    (List.map state ranks);
  Ciod.crash ciod;
  check_int "crash drops every proxy" 0 (Ciod.proxy_count ciod);
  Ciod.restart ciod;
  check_int "restart rebuilds the remaining proxies" 4 (Ciod.proxy_count ciod);
  (* the rebuilt proxies still hold their descriptors; rank 1 gets a
     fresh proxy that never opened anything *)
  Hashtbl.reset replies;
  write ~rank:0 ~pid:2 ~tid:2 "more";
  write ~rank:1 ~pid:1 ~tid:2 "stray";
  Alcotest.(check bool) "rank 0 writes on" true
    (Hashtbl.find_opt replies (0, 2, 2) = Some (Sysreq.R_int 4));
  Alcotest.(check bool) "rank 1 has no descriptor" true
    (Hashtbl.find_opt replies (1, 1, 2) = Some (Sysreq.R_err Errno.EBADF))

(* A rank's CIOD tables outlive its jobs: a warm start/end pair with one
   pid allocates only the new proxy (9 words), its snapshot (4), three
   table cells (12) and [Hashtbl.iter]'s closure (4), 29 words in all,
   and leaves nothing a capture can see. *)
let test_ciod_warm_job_allocates_little () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let ciod = Ciod.create machine ~io_node:0 () in
  let capture () =
    let b = Buffer.create 256 in
    Ciod.capture ciod b;
    Buffer.contents b
  in
  let fresh = capture () in
  Ciod.job_start ciod ~rank:1 ~pids:[ 1 ];
  Ciod.job_end ciod ~rank:1;
  let jobs = 100 in
  let pids = Array.init jobs (fun i -> [ i + 2 ]) in
  let before = Gc.minor_words () in
  Array.iter
    (fun pids ->
      Ciod.job_start ciod ~rank:1 ~pids;
      Ciod.job_end ciod ~rank:1)
    pids;
  let per_job = (Gc.minor_words () -. before) /. float_of_int jobs in
  if per_job > 30. then
    Alcotest.failf "a warm job_start/job_end pair allocated %.1f words (at most 30)" per_job;
  Alcotest.(check string) "an emptied rank adds no capture bytes" fresh (capture ())

let suite =
  [
    Alcotest.test_case "text: every process holds its image's" `Quick
      test_every_process_holds_its_text;
    Alcotest.test_case "gc: finished job collectable after reset" `Quick
      test_finished_job_is_collectable;
    Alcotest.test_case "completion: once per job over 200 jobs" `Quick
      test_completion_once_per_job;
    Alcotest.test_case "launch: oversized map refused before any state change" `Quick
      test_oversized_launch_is_refused;
    Alcotest.test_case "ciod: job end keeps other ranks" `Quick
      test_ciod_job_end_keeps_other_ranks;
    Alcotest.test_case "ciod: warm job start/end allocates little" `Quick
      test_ciod_warm_job_allocates_little;
    Alcotest.test_case "gc: warm launch on a fresh node allocates no major words" `Quick
      test_launch_allocates_no_major_words;
  ]
