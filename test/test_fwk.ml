(* Tests for the Linux-like FWK baseline: buddy allocator, noise model,
   preemptive noisy scheduling, demand paging, enforced mprotect, local
   VFS, and the "same runtime binary runs on both kernels" property. *)

open Bg_engine
open Bg_kabi
module Rt = Bg_rt
module Fwk = Bg_fwk
module Noise = Bg_noise

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mb = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Buddy *)

let test_buddy_alloc_free () =
  let b = Fwk.Buddy.create ~bytes:(16 * mb) in
  check_int "all free" (16 * mb) (Fwk.Buddy.free_bytes b);
  let a = Result.get_ok (Fwk.Buddy.alloc b ~order:12) in
  check_int "aligned" 0 (a mod 4096);
  check_int "free shrank" ((16 * mb) - 4096) (Fwk.Buddy.free_bytes b);
  Fwk.Buddy.free b ~addr:a ~order:12;
  check_int "all free again" (16 * mb) (Fwk.Buddy.free_bytes b);
  (* after full coalescing a 16MB block is available again *)
  Alcotest.(check (option int)) "coalesced" (Some 24) (Fwk.Buddy.largest_free_order b)

let test_buddy_split_and_coalesce () =
  let b = Fwk.Buddy.create ~bytes:(1 lsl 20) in
  let blocks = List.init 256 (fun _ -> Result.get_ok (Fwk.Buddy.alloc b ~order:12)) in
  check_int "exhausted" 0 (Fwk.Buddy.free_bytes b);
  (match Fwk.Buddy.alloc b ~order:12 with
  | Error Errno.ENOMEM -> ()
  | _ -> Alcotest.fail "expected ENOMEM");
  List.iter (fun addr -> Fwk.Buddy.free b ~addr ~order:12) blocks;
  Alcotest.(check (option int)) "full coalesce" (Some 20) (Fwk.Buddy.largest_free_order b)

let test_buddy_fragmentation_metric () =
  let b = Fwk.Buddy.create ~bytes:(1 lsl 20) in
  Alcotest.(check (float 0.001)) "unfragmented" 0.0 (Fwk.Buddy.fragmentation b);
  (* allocate everything as 4K, free every other block: max fragmentation *)
  let blocks = List.init 256 (fun _ -> Result.get_ok (Fwk.Buddy.alloc b ~order:12)) in
  List.iteri (fun i addr -> if i mod 2 = 0 then Fwk.Buddy.free b ~addr ~order:12) blocks;
  check_bool "fragmented" true (Fwk.Buddy.fragmentation b > 0.9);
  Alcotest.(check (option int)) "only 4K available" (Some 12) (Fwk.Buddy.largest_free_order b)

let test_buddy_double_free_detected () =
  let b = Fwk.Buddy.create ~bytes:(1 lsl 20) in
  let a = Result.get_ok (Fwk.Buddy.alloc b ~order:12) in
  Fwk.Buddy.free b ~addr:a ~order:12;
  Alcotest.(check bool) "double free raises" true
    (try
       Fwk.Buddy.free b ~addr:a ~order:12;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Noise model *)

let test_noise_quiet_is_ticks_only () =
  let n =
    Fwk.Noise_model.create ~daemons:[] ~rng:(Rng.create 1L) ()
  in
  (* one 100k-cycle quantum starting at 0 crosses no tick (first at 850k) *)
  check_int "no interference" 100_000 (Fwk.Noise_model.advance n ~start:0 ~work:100_000);
  (* a quantum crossing the tick pays the handler *)
  let finish = Fwk.Noise_model.advance n ~start:800_000 ~work:100_000 in
  check_bool "tick charged" true (finish > 900_000);
  check_bool "stolen recorded" true (Fwk.Noise_model.stolen_cycles n > 0)

let test_noise_heavy_core_noisier () =
  (* The paper's per-core contrast is in the worst-case quantum (Figs 5-7),
     not the mean: cores 0/2/3 show rare large excursions, core 1 only the
     tick + rcu floor. *)
  let worst daemons =
    let n = Fwk.Noise_model.create ~daemons ~rng:(Rng.create 7L) () in
    let worst = ref 0 in
    let t = ref 0 in
    for _ = 1 to 2000 do
      let fin = Fwk.Noise_model.advance n ~start:!t ~work:658_958 in
      worst := max !worst (fin - !t - 658_958);
      t := fin
    done;
    !worst
  in
  let heavy = worst (Fwk.Noise_model.suse_daemon_set ~core:0) in
  let light = worst (Fwk.Noise_model.suse_daemon_set ~core:1) in
  check_bool "core0 worst-case above core1's" true (heavy > 2 * light)

let test_noise_deterministic () =
  let run () =
    let n =
      Fwk.Noise_model.create ~daemons:(Fwk.Noise_model.suse_daemon_set ~core:0)
        ~rng:(Rng.create 5L) ()
    in
    List.init 100 (fun i -> Fwk.Noise_model.advance n ~start:(i * 1_000_000) ~work:658_958)
  in
  Alcotest.(check (list int)) "same seed same timeline" (run ()) (run ())

(* [create] refuses settings the walk cannot run, before any draw: a
   tick interval of 0 divided by zero at the first consume past cycle 0,
   -5 never returned, and a period under one cycle makes the idle
   catch-up crawl. *)
let rejected_settings =
  let daemon period =
    { Fwk.Noise_model.daemon_name = "d"; period_mean = period; period_jitter = 0.3;
      cost_mean = 2_500.0; cost_jitter = 0.3 }
  in
  let model ?tick_interval ?tick_cost ?(daemons = []) () =
    ignore (Fwk.Noise_model.create ?tick_interval ?tick_cost ~daemons ~rng:(Rng.create 1L) ())
  in
  let node tick_interval () =
    let machine = Machine.create ~dims:(1, 1, 1) () in
    ignore (Fwk.Node.create ~tick_interval machine ~rank:0 ~stripped:true ())
  in
  [
    ("node tick_interval 0", node 0);
    ("node tick_interval -5", node (-5));
    ("tick_interval 0", fun () -> model ~tick_interval:0 ());
    ("tick_interval min_int", fun () -> model ~tick_interval:min_int ());
    ("tick_cost -1", fun () -> model ~tick_cost:(-1) ());
    ("daemon period 0", fun () -> model ~daemons:[ daemon 0.0 ] ());
    ("daemon period -4.2e6", fun () -> model ~daemons:[ daemon (-4.2e6) ] ());
    ("daemon period 0.5", fun () -> model ~daemons:[ daemon 0.5 ] ());
    ("daemon period nan", fun () -> model ~daemons:[ daemon Float.nan ] ());
    ("second daemon period 0", fun () -> model ~daemons:[ daemon 4.2e6; daemon 0.0 ] ());
  ]
  |> List.map (fun (name, make) ->
         Alcotest.test_case ("noise: rejects " ^ name) `Quick (fun () ->
             match make () with
             | () -> Alcotest.failf "%s was accepted" name
             | exception Invalid_argument _ -> ()))

(* The settings in use stay accepted: no tick ([max_int], noise
   injection), a tick past any run ([1 lsl 50], the messaging sweep),
   and a tick too cheap to jitter, which now costs exactly its cycles. *)
let test_noise_accepts_settings_in_use () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  ignore (Fwk.Node.create ~tick_interval:(1 lsl 50) machine ~rank:0 ~stripped:true ());
  let untimed =
    Fwk.Noise_model.create ~tick_interval:max_int ~tick_cost:0 ~daemons:[] ~rng:(Rng.create 1L) ()
  in
  check_int "no tick ever" 5_000_000 (Fwk.Noise_model.advance untimed ~start:0 ~work:5_000_000);
  List.iter
    (fun tick_cost ->
      let n =
        Fwk.Noise_model.create ~tick_interval:1_000 ~tick_cost ~daemons:[] ~rng:(Rng.create 1L) ()
      in
      check_int (Printf.sprintf "tick cost %d" tick_cost) (10_000 + (10 * tick_cost))
        (Fwk.Noise_model.advance n ~start:0 ~work:10_000);
      check_int "window tick" (10 * tick_cost) (Fwk.Noise_model.window_tick n))
    [ 0; 1; 3 ]

(* The walk against the model as it was before it was rewritten
   ([noise_model_reference.ml]): same finish, same steal split, same
   stolen total, same RNG position and the same capture bytes after
   every call, over nondecreasing starts with idle gaps of many periods. *)
module Ref = Noise_model_reference

let tiny_ties =
  (* periods of a few cycles, so phases truncate to the same cycle as each
     other and as a 16-cycle tick, and the tick-first tie rule decides
     (phases are sums of random floats, so two never meet exactly and the
     first-listed rule between daemons cannot be driven). A cost of
     [c] draws in [c, c + 1), so these steal about 0.6 of each cycle with
     the tick; at 1.0 or more a window would never close. *)
  let d name period_mean period_jitter cost_mean =
    { Fwk.Noise_model.daemon_name = name; period_mean; period_jitter; cost_mean; cost_jitter = 0.0 }
  in
  [ d "a" 4.0 0.0 1.0; d "b" 4.0 0.5 0.0; d "c" 6.0 0.0 1.0; d "a'" 4.0 0.0 0.0 ]

let twins =
  (* equal periods at the paper's scale *)
  let rcu = List.hd (Fwk.Noise_model.suse_daemon_set ~core:1) in
  [ rcu; { rcu with Fwk.Noise_model.daemon_name = "rcu2" }; { rcu with period_jitter = 0.0 } ]

(* (name, daemons, tick intervals, tick cost, largest gap, largest work) *)
let walk_sets =
  let paper = [ Fwk.Noise_model.default_tick_interval; max_int; 1 lsl 50 ] in
  let cost = Fwk.Noise_model.default_tick_cost in
  [|
    ("suse core 0", Fwk.Noise_model.suse_daemon_set ~core:0, paper, cost, 2_000_000_000, 3_000_000);
    ("suse core 1 (light)", Fwk.Noise_model.suse_daemon_set ~core:1, paper, cost, 2_000_000_000,
     3_000_000);
    ("quiet", Fwk.Noise_model.quiet_daemon_set ~core:0, paper, cost, 2_000_000_000, 3_000_000);
    ("io_node core 0", Fwk.Noise_model.io_node_daemon_set ~core:0, paper, cost, 2_000_000_000,
     3_000_000);
    ("io_node core 1", Fwk.Noise_model.io_node_daemon_set ~core:1, paper, cost, 2_000_000_000,
     3_000_000);
    ("twins", twins, paper, cost, 200_000_000, 3_000_000);
    ("tiny ties", tiny_ties, [ 16; max_int ], 4, 400, 120);
  |]

let walk_case_gen =
  let open QCheck.Gen in
  int_bound (Array.length walk_sets - 1) >>= fun set ->
  let _, _, ticks, _, max_gap, max_work = walk_sets.(set) in
  oneofl ticks >>= fun tick ->
  int_bound 1_000_000 >>= fun seed ->
  let gap =
    frequency
      [ (4, int_bound (max_gap / 1_000)); (2, return 0); (2, int_range (max_gap / 10) max_gap) ]
  in
  list_size (1 -- 30) (pair gap (int_bound max_work)) >>= fun calls ->
  return (set, tick, seed, calls)

let print_walk_case (set, tick, seed, calls) =
  let name, _, _, _, _, _ = walk_sets.(set) in
  Printf.sprintf "%s, tick %d, seed %d, (gap, work) %s" name tick seed
    (String.concat "; " (List.map (fun (g, w) -> Printf.sprintf "(%d, %d)" g w) calls))

let walk_matches_reference (set, tick, seed, calls) =
  let _, daemons, _, tick_cost, _, _ = walk_sets.(set) in
  let rng = Rng.create (Int64.of_int seed) and ref_rng = Rng.create (Int64.of_int seed) in
  let n = Fwk.Noise_model.create ~tick_interval:tick ~tick_cost ~daemons ~rng () in
  let r = Ref.create ~tick_interval:tick ~tick_cost ~daemons ~rng:ref_rng () in
  let capture f =
    let b = Buffer.create 128 in
    f b;
    Buffer.contents b
  in
  let same what a b = if a <> b then QCheck.Test.fail_reportf "%s: %d, reference %d" what a b in
  let start = ref 0 in
  List.iteri
    (fun i (gap, work) ->
      start := !start + gap;
      let finish = Fwk.Noise_model.advance n ~start:!start ~work in
      let ref_finish, steal = Ref.advance2 r ~start:!start ~work in
      let at what = Printf.sprintf "call %d %s" i what in
      same (at "finish") finish ref_finish;
      same (at "tick steal") (Fwk.Noise_model.window_tick n) steal.Ref.tick;
      same (at "daemon steal") (Fwk.Noise_model.window_daemon n) steal.Ref.daemon;
      same (at "stolen") (Fwk.Noise_model.stolen_cycles n) (Ref.stolen_cycles r);
      if Rng.state rng <> Rng.state ref_rng then QCheck.Test.fail_reportf "%s" (at "rng state");
      if capture (Fwk.Noise_model.capture n) <> capture (Ref.capture r) then
        QCheck.Test.fail_reportf "%s" (at "capture bytes"))
    calls;
  true

let prop_walk_matches_reference =
  QCheck.Test.make ~name:"noise: walk = pre-rewrite reference model" ~count:400
    (QCheck.make ~print:print_walk_case walk_case_gen)
    walk_matches_reference

(* ------------------------------------------------------------------ *)
(* FWK node end-to-end *)

let run_on_fwk ?noise_seed ?(machine = Machine.create ~dims:(1, 1, 1) ()) f =
  let node = Fwk.Node.create ?noise_seed machine ~rank:0 ~stripped:true () in
  let done_ = ref false in
  Fwk.Node.boot node ~on_ready:(fun () ->
      Fwk.Node.on_job_complete node (fun () -> done_ := true);
      match Fwk.Node.launch node (Job.create ~name:"t" (Image.executable ~name:"t" f)) with
      | Ok () -> ()
      | Error e -> failwith e);
  ignore (Sim.run machine.Machine.sim);
  if not !done_ then failwith "fwk job did not finish";
  node

let test_fwk_runs_same_runtime () =
  (* The very same Bg_rt runtime used on CNK: malloc, pthreads, mutex. *)
  let total = ref (-1) and sysname = ref "" in
  let node =
    run_on_fwk (fun () ->
        sysname := (Rt.Libc.uname ()).Sysreq.sysname;
        let m = Rt.Pthread.Mutex.create () in
        let counter = Rt.Malloc.malloc 8 in
        Rt.Libc.poke counter 0;
        let bump () =
          for _ = 1 to 20 do
            Rt.Pthread.Mutex.lock m;
            Rt.Libc.poke counter (Rt.Libc.peek counter + 1);
            Rt.Pthread.Mutex.unlock m
          done
        in
        let ws = List.init 3 (fun _ -> Rt.Pthread.create bump) in
        bump ();
        List.iter Rt.Pthread.join ws;
        total := Rt.Libc.peek counter)
  in
  Alcotest.(check string) "it's Linux" "Linux" !sysname;
  check_int "mutex works on fwk" 80 !total;
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node)

let test_fwk_demand_paging_counts () =
  let node =
    run_on_fwk (fun () ->
        let a = Rt.Malloc.malloc (256 * 4096) in
        (* touch 256 distinct pages *)
        for i = 0 to 255 do
          Rt.Libc.poke (a + (i * 4096)) i
        done)
  in
  check_bool "minor faults taken" true (Fwk.Node.minor_faults node >= 256)

let test_fwk_tlb_pressure_evicts () =
  let node =
    run_on_fwk (fun () ->
        let pages = 256 in
        let a = Rt.Malloc.malloc (pages * 4096) in
        (* two sweeps over 256 pages with a 64-entry TLB: second sweep
           still misses (capacity), so refills/evictions accumulate *)
        for _ = 1 to 2 do
          for i = 0 to pages - 1 do
            Rt.Libc.poke (a + (i * 4096)) i
          done
        done)
  in
  check_bool "TLB evictions under 4K paging" true (Fwk.Node.tlb_refills node > 256)

let test_fwk_noise_varies_identical_work () =
  let samples = ref [] in
  let _node =
    run_on_fwk (fun () ->
        for _ = 1 to 200 do
          let t0 = Coro.rdtsc () in
          Coro.consume 658_958;
          let t1 = Coro.rdtsc () in
          samples := (t1 - t0) :: !samples
        done)
  in
  let arr = Array.of_list (List.map float_of_int !samples) in
  let s = Stats.summarize arr in
  check_bool "noise spread over 1%" true (Stats.spread_percent s > 1.0)

let test_fwk_preemption_interleaves () =
  (* two CPU-bound threads forced onto one core: the 10 ms time slice must
     interleave them (completions close together), not run them serially *)
  let done_at = Array.make 2 0 in
  let _node =
    run_on_fwk (fun () ->
        (* saturate cores 1..3 so the competitor lands on core 0 *)
        let parked =
          List.init 3 (fun _ -> Rt.Pthread.create (fun () -> Coro.consume 80_000_000))
        in
        let other =
          Rt.Pthread.create (fun () ->
              Coro.consume 30_000_000;
              done_at.(1) <- Coro.rdtsc ())
        in
        Coro.consume 30_000_000;
        done_at.(0) <- Coro.rdtsc ();
        Rt.Pthread.join other;
        List.iter Rt.Pthread.join parked)
  in
  let a = done_at.(0) and b = done_at.(1) in
  check_bool "both ran" true (a > 0 && b > 0);
  (* serial execution would separate completions by ~30M cycles; slicing
     keeps them within ~1.5 slices of each other *)
  check_bool "interleaved by the time slice" true (abs (a - b) < 15_000_000)

let test_fwk_same_seed_identical_noise () =
  let run () =
    let r = Noise.Fwq_harness.run_on_fwk ~samples:400 ~noise_seed:33L () in
    List.map
      (fun t -> Array.to_list t.Noise.Fwq_harness.samples)
      r.Noise.Fwq_harness.threads
  in
  Alcotest.(check (list (list int))) "deterministic given its seed" (run ()) (run ())

let test_fwk_overcommit_allowed () =
  (* 20 threads on 4 cores: Linux timeshares them happily (Table II). *)
  let finished = ref 0 in
  let node =
    run_on_fwk (fun () ->
        let done_ctr = Rt.Malloc.malloc 8 in
        Rt.Libc.poke done_ctr 0;
        let ws =
          List.init 20 (fun _ ->
              Rt.Pthread.create (fun () ->
                  Coro.consume 100_000;
                  ignore (Coro.fetch_add ~addr:done_ctr 1)))
        in
        List.iter Rt.Pthread.join ws;
        finished := Rt.Libc.peek done_ctr)
  in
  check_int "all 20 ran" 20 !finished;
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node)

let test_fwk_mprotect_enforced () =
  (* Unlike CNK, Linux honors page protection (Table II). *)
  let node =
    run_on_fwk (fun () ->
        let a = Rt.Libc.mmap_anon ~length:4096 in
        Rt.Libc.poke a 1;
        (* our fwk mprotect takes effect per page *)
        Sysreq.expect_unit
          (Coro.syscall
             (Sysreq.Mprotect { addr = a; length = 4096; prot = Bg_hw.Tlb.perm_ro }));
        Rt.Libc.poke a 2 (* must fault *))
  in
  match Fwk.Node.faults node with
  | [ (_, _) ] -> ()
  | l -> Alcotest.failf "expected 1 fault, got %d" (List.length l)

(* A write to a read-only page kills the thread when the process has no
   SIGSEGV handler. The death travels the RAS stream as a typed
   [Thread_death], so the control system gang-kills the job, and its
   record reads as the FWK's segv line always did. *)
let test_fwk_segv_is_a_thread_death () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  let seen = ref [] in
  Machine.on_ras machine (fun ~rank ev -> seen := (rank, ev) :: !seen);
  let node =
    run_on_fwk ~machine (fun () ->
        let a = Rt.Libc.mmap_anon ~length:4096 in
        Sysreq.expect_unit
          (Coro.syscall
             (Sysreq.Mprotect { addr = a; length = 4096; prot = Bg_hw.Tlb.perm_ro }));
        Rt.Libc.poke a 2)
  in
  match (Fwk.Node.faults node, !seen) with
  | [ (tid, reason) ], [ (0, (Machine.Thread_death { tid = tid'; cause = Segv reason' } as ev)) ]
    ->
    check_int "same thread" tid tid';
    Alcotest.(check string) "same reason" reason reason';
    let r = Machine.ras_store (Bg_obs.Rasdb.create ()) ~cycle:0 ~rank:0 ev in
    Alcotest.(check string) "record text" (Printf.sprintf "tid %d segv: %s" tid reason)
      r.Bg_obs.Rasdb.message
  | faults, evs ->
    Alcotest.failf "expected one fault and one segv death, got %d and %d" (List.length faults)
      (List.length evs)

(* Out-of-range mprotect is refused before the per-page loop (which would
   otherwise walk 2^24 pages for a [1 lsl 36] length): a range reaching
   past the 3 GB user limit is ENOMEM, a negative length EINVAL, and
   neither protects anything. An in-range call still succeeds. *)
let test_fwk_mprotect_range_checked () =
  let got = ref [] in
  let node =
    run_on_fwk (fun () ->
        let a = Rt.Libc.mmap_anon ~length:4096 in
        let mprotect addr length =
          match
            Coro.syscall (Sysreq.Mprotect { addr; length; prot = Bg_hw.Tlb.perm_ro })
          with
          | Sysreq.R_unit -> "ok"
          | Sysreq.R_err e -> Errno.to_string e
          | _ -> "?"
        in
        got :=
          [
            mprotect a (1 lsl 36);
            mprotect a (-4096);
            mprotect (0xC000_0000 - 4096) 8192;
            mprotect max_int 4096;
          ];
        Rt.Libc.poke a 1 (* still writable *);
        let last = mprotect a 4096 in
        got := !got @ [ last ])
  in
  Alcotest.(check (list string)) "errnos" [ "ENOMEM"; "EINVAL"; "ENOMEM"; "ENOMEM"; "ok" ] !got;
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node)

let test_fwk_no_vtop () =
  let errno = ref "" in
  let _node =
    run_on_fwk (fun () ->
        try ignore (Rt.Libc.virtual_to_physical 0)
        with Sysreq.Syscall_error e -> errno := Errno.to_string e)
  in
  Alcotest.(check string) "v->p not available on Linux" "ENOSYS" !errno

let test_fwk_local_io () =
  let back = ref "" in
  let node =
    run_on_fwk (fun () ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "local.txt" in
        ignore (Rt.Libc.write_string fd "fwk data");
        ignore (Rt.Libc.lseek fd ~offset:0 ~whence:Sysreq.Seek_set);
        back := Bytes.to_string (Rt.Libc.read fd ~len:100);
        Rt.Libc.close fd)
  in
  Alcotest.(check string) "local vfs roundtrip" "fwk data" !back;
  let inode = Result.get_ok (Bg_cio.Fs.resolve (Fwk.Node.fs node) ~cwd:"/" "/local.txt") in
  check_int "file size" 8 (Bg_cio.Fs.stat (Fwk.Node.fs node) inode).Sysreq.st_size

let test_fwk_file_mmap_demand_paged () =
  let contents = ref "" in
  let node =
    run_on_fwk (fun () ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "lib.so" in
        ignore (Rt.Libc.write fd (Bytes.make 16_384 'L'));
        let addr = Rt.Libc.mmap_file ~fd ~length:16_384 ~offset:0 in
        Rt.Libc.close fd;
        (* touch page 0 and page 3: two major faults, correct contents *)
        contents := Bytes.to_string (Coro.load ~addr ~len:4);
        ignore (Coro.load ~addr:(addr + (3 * 4096)) ~len:4))
  in
  Alcotest.(check string) "page content read at fault" "LLLL" !contents;
  check_int "exactly the touched pages faulted" 2 (Fwk.Node.major_faults node)

let test_fwk_dynlink_noise_at_runtime () =
  (* SSIV.B.2 ablation: on a paging kernel, touching a freshly mapped
     library mid-computation dents the timing; CNK pays it all at load *)
  let spread = ref 0.0 in
  let _node =
    run_on_fwk (fun () ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "big.so" in
        ignore (Rt.Libc.write fd (Bytes.make (64 * 4096) 'x'));
        let addr = Rt.Libc.mmap_file ~fd ~length:(64 * 4096) ~offset:0 in
        Rt.Libc.close fd;
        let samples = Array.make 64 0.0 in
        for i = 0 to 63 do
          let t0 = Coro.rdtsc () in
          Coro.consume 10_000;
          (* every 8th quantum touches a new page of the library *)
          if i mod 8 = 0 then ignore (Coro.load ~addr:(addr + (i * 4096)) ~len:8);
          samples.(i) <- float_of_int (Coro.rdtsc () - t0)
        done;
        spread := Bg_engine.Stats.spread_percent (Bg_engine.Stats.summarize samples))
  in
  check_bool "page-in dents the loop" true (!spread > 50.0)

let test_fwk_page_cache_reclaim () =
  (* a tiny-memory node: anonymous pressure evicts clean file pages, the
     program survives, and re-touching a discarded page re-reads it *)
  let params = { Bg_hw.Params.bgp with Bg_hw.Params.dram_bytes = 8 * 1024 * 1024 } in
  let machine = Machine.create ~params ~dims:(1, 1, 1) () in
  let node = Fwk.Node.create ~noise_seed:1L machine ~rank:0 ~stripped:true () in
  let survived = ref false and reread = ref "" in
  Fwk.Node.boot node ~on_ready:(fun () ->
      match
        Fwk.Node.launch node
          (Job.create ~name:"p"
             (Image.executable ~name:"p" (fun () ->
                  let file_bytes = 4 * 1024 * 1024 in
                  let fd =
                    Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "data"
                  in
                  ignore (Rt.Libc.write fd (Bytes.make file_bytes 'F'));
                  let maddr = Rt.Libc.mmap_file ~fd ~length:file_bytes ~offset:0 in
                  Rt.Libc.close fd;
                  (* make the file resident *)
                  for pg = 0 to (file_bytes / 4096) - 1 do
                    ignore (Coro.load ~addr:(maddr + (pg * 4096)) ~len:1)
                  done;
                  (* anonymous pressure: ~4.6 MB of touched heap *)
                  let a = Rt.Libc.mmap_anon ~length:(4_600 * 1024) in
                  for pg = 0 to (4_600 * 1024 / 4096) - 1 do
                    Rt.Libc.poke (a + (pg * 4096)) pg
                  done;
                  (* a discarded file page comes back with its contents *)
                  reread := Bytes.to_string (Coro.load ~addr:maddr ~len:4);
                  survived := true)))
      with
      | Ok () -> ()
      | Error e -> failwith e);
  ignore (Sim.run machine.Machine.sim);
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node);
  check_bool "survived pressure" true !survived;
  check_bool "pages were reclaimed" true (Fwk.Node.reclaims node > 0);
  Alcotest.(check string) "content re-read after reclaim" "FFFF" !reread

let test_fwk_boot_slower_than_cnk () =
  check_bool "full Linux boot ~250x CNK" true
    (Fwk.Node.boot_cycles_full > 200 * Cnk.Node.boot_cycles);
  check_bool "stripped still ~35x" true
    (Fwk.Node.boot_cycles_stripped > 30 * Cnk.Node.boot_cycles)

let test_fwk_contiguous_degrades_with_churn () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  let node = Fwk.Node.create machine ~rank:0 () in
  check_bool "fresh: 256MB contiguous fine" true
    (Fwk.Node.try_alloc_contiguous node ~bytes:(256 * mb));
  Fwk.Node.churn node ~allocations:30_000 ~seed:99L;
  check_bool "after churn: 1GB contiguous fails" false
    (Fwk.Node.try_alloc_contiguous node ~bytes:(1024 * mb))

let test_fwk_not_reproducible_across_environments () =
  (* Same program, different noise seeds (= different uncontrolled daemon
     phases): completion cycles differ. CNK's equivalent test shows exact
     equality. *)
  let run seed =
    let machine = Machine.create ~dims:(1, 1, 1) () in
    let node = Fwk.Node.create ~noise_seed:seed machine ~rank:0 ~stripped:true () in
    let finish = ref 0 in
    Fwk.Node.boot node ~on_ready:(fun () ->
        Fwk.Node.on_job_complete node (fun () -> finish := Sim.now machine.Machine.sim);
        match
          Fwk.Node.launch node
            (Job.create ~name:"r"
               (Image.executable ~name:"r" (fun () -> Coro.consume 50_000_000)))
        with
        | Ok () -> ()
        | Error e -> failwith e);
    ignore (Sim.run machine.Machine.sim);
    !finish
  in
  check_bool "timing differs across environments" true (run 1L <> run 2L)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "fwk: segv is a thread death" `Quick test_fwk_segv_is_a_thread_death;
    Alcotest.test_case "buddy: alloc/free" `Quick test_buddy_alloc_free;
    Alcotest.test_case "buddy: split/coalesce" `Quick test_buddy_split_and_coalesce;
    Alcotest.test_case "buddy: fragmentation" `Quick test_buddy_fragmentation_metric;
    Alcotest.test_case "buddy: double free" `Quick test_buddy_double_free_detected;
    Alcotest.test_case "noise: quiet ticks" `Quick test_noise_quiet_is_ticks_only;
    Alcotest.test_case "noise: heavy vs light core" `Quick test_noise_heavy_core_noisier;
    Alcotest.test_case "noise: deterministic" `Quick test_noise_deterministic;
    Alcotest.test_case "noise: settings in use accepted" `Quick test_noise_accepts_settings_in_use;
    QCheck_alcotest.to_alcotest prop_walk_matches_reference;
    Alcotest.test_case "fwk: same runtime as cnk" `Quick test_fwk_runs_same_runtime;
    Alcotest.test_case "fwk: demand paging" `Quick test_fwk_demand_paging_counts;
    Alcotest.test_case "fwk: tlb pressure" `Quick test_fwk_tlb_pressure_evicts;
    Alcotest.test_case "fwk: noise on fixed work" `Quick test_fwk_noise_varies_identical_work;
    Alcotest.test_case "fwk: preemption interleaves" `Quick test_fwk_preemption_interleaves;
    Alcotest.test_case "fwk: seeded determinism" `Quick test_fwk_same_seed_identical_noise;
    Alcotest.test_case "fwk: overcommit ok" `Quick test_fwk_overcommit_allowed;
    Alcotest.test_case "fwk: mprotect enforced" `Quick test_fwk_mprotect_enforced;
    Alcotest.test_case "fwk: mprotect range checked" `Quick test_fwk_mprotect_range_checked;
    Alcotest.test_case "fwk: no vtop" `Quick test_fwk_no_vtop;
    Alcotest.test_case "fwk: local io" `Quick test_fwk_local_io;
    Alcotest.test_case "fwk: file mmap demand paged" `Quick test_fwk_file_mmap_demand_paged;
    Alcotest.test_case "fwk: dynlink noise at runtime" `Quick test_fwk_dynlink_noise_at_runtime;
    Alcotest.test_case "fwk: page-cache reclaim" `Quick test_fwk_page_cache_reclaim;
    Alcotest.test_case "fwk: boot cost ratios" `Quick test_fwk_boot_slower_than_cnk;
    Alcotest.test_case "fwk: buddy churn vs contiguous" `Quick
      test_fwk_contiguous_degrades_with_churn;
    Alcotest.test_case "fwk: not reproducible" `Quick test_fwk_not_reproducible_across_environments;
  ]
  @ rejected_settings
