(* Tests for the CNK kernel: static mapping properties, mmap tracking,
   futexes, persistent memory, and end-to-end jobs exercising syscalls,
   NPTL-style threading, guard pages, function-shipped I/O, dynamic
   linking and cycle reproducibility. *)

open Bg_engine
open Bg_hw
open Bg_kabi
open Cnk
module Rt = Bg_rt

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mb = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Mapping *)

let compute_ok cfg =
  match Mapping.compute cfg with Ok t -> t | Error e -> Alcotest.failf "mapping: %s" e

let regions_cover_and_align (pm : Mapping.process_map) =
  List.iter
    (fun (r : Sysreq.region) ->
      check_bool "va aligned" true (Page_size.aligned r.Sysreq.page r.Sysreq.vaddr);
      check_bool "pa aligned" true (Page_size.aligned r.Sysreq.page r.Sysreq.paddr);
      check_int "bytes = page" (Page_size.bytes r.Sysreq.page) r.Sysreq.bytes)
    pm.Mapping.regions

let test_mapping_smp () =
  let t = compute_ok Mapping.default_config in
  check_int "one process" 1 (Array.length t.Mapping.procs);
  let pm = t.Mapping.procs.(0) in
  regions_cover_and_align pm;
  check_bool "fits budget" true
    (t.Mapping.entries_per_core <= Mapping.default_config.Mapping.tlb_budget);
  (* proc 0 enjoys an identity mapping for text *)
  (match Mapping.region_for pm Mapping.text_va with
  | Some r -> check_int "text identity" 0 r.Sysreq.paddr
  | None -> Alcotest.fail "no text region");
  check_bool "heap is large" true (pm.Mapping.heap_stack_bytes > 1024 * mb)

let test_mapping_no_overlap_pa () =
  List.iter
    (fun nprocs ->
      let t = compute_ok { Mapping.default_config with Mapping.nprocs } in
      (* Collect all physical ranges across processes; shared ranges are
         deliberately identical across processes, so dedup them. *)
      let ranges =
        Array.to_list t.Mapping.procs
        |> List.concat_map (fun pm ->
               List.map
                 (fun (r : Sysreq.region) -> (r.Sysreq.kind, r.Sysreq.paddr, r.Sysreq.bytes))
                 pm.Mapping.regions)
        |> List.sort_uniq compare
      in
      let sorted = List.sort (fun (_, a, _) (_, b, _) -> compare a b) ranges in
      let rec no_overlap = function
        | (_, a, la) :: ((_, b, _) :: _ as rest) ->
          check_bool "disjoint pa" true (a + la <= b);
          no_overlap rest
        | _ -> ()
      in
      no_overlap sorted)
    [ 1; 2; 4 ]

let test_mapping_vn_equal_split () =
  let t = compute_ok { Mapping.default_config with Mapping.nprocs = 4 } in
  let sizes =
    Array.to_list t.Mapping.procs |> List.map (fun pm -> pm.Mapping.heap_stack_bytes)
  in
  (match sizes with
  | s :: rest -> List.iter (fun x -> check_int "even split" s x) rest
  | [] -> Alcotest.fail "no procs");
  check_bool "budget" true (t.Mapping.entries_per_core <= 60)

let test_mapping_escalates_floor () =
  (* A brutal TLB budget forces larger minimum pages. *)
  let cfg = { Mapping.default_config with Mapping.tlb_budget = 12 } in
  let t = compute_ok cfg in
  check_bool "fits" true (t.Mapping.entries_per_core <= 12);
  check_bool "floor raised" true (t.Mapping.min_page <> Page_size.P1m)

let test_mapping_too_small_fails () =
  let cfg =
    { Mapping.default_config with Mapping.dram_bytes = 128 * mb; persist_bytes = 0 }
  in
  match Mapping.compute { cfg with Mapping.nprocs = 4 } with
  | Error _ -> ()
  | Ok t ->
    (* if it fits, every process still needs a real heap *)
    Array.iter
      (fun pm -> check_bool "heap nonempty" true (pm.Mapping.heap_stack_bytes > 0))
      t.Mapping.procs

let test_mapping_rejects_bad_nprocs () =
  match Mapping.compute { Mapping.default_config with Mapping.nprocs = 3 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nprocs=3 accepted"

let test_tile_covers_exactly () =
  let tiles = Mapping.tile ~va:0 ~pa:0 ~bytes:(300 * mb) ~floor:Page_size.P1m in
  let total = List.fold_left (fun acc (p, _, _) -> acc + Page_size.bytes p) 0 tiles in
  check_int "covers rounded size" (300 * mb) total;
  (* contiguity *)
  let rec contiguous = function
    | (p1, va1, pa1) :: ((_, va2, pa2) :: _ as rest) ->
      check_int "va contiguous" (va1 + Page_size.bytes p1) va2;
      check_int "pa contiguous" (pa1 + Page_size.bytes p1) pa2;
      contiguous rest
    | _ -> ()
  in
  contiguous tiles;
  (* 300 MB aligned at 0 should use a 256 MB page plus smaller ones *)
  check_bool "uses 256M" true (List.exists (fun (p, _, _) -> p = Page_size.P256m) tiles)

let prop_tile_alignment =
  QCheck.Test.make ~name:"tiles are always self-aligned" ~count:200
    QCheck.(pair (int_range 1 600) (int_range 0 64))
    (fun (mbs, offset_mb) ->
      let tiles =
        Mapping.tile ~va:(offset_mb * mb) ~pa:(offset_mb * mb) ~bytes:(mbs * mb)
          ~floor:Page_size.P1m
      in
      List.for_all
        (fun (p, va, pa) -> Page_size.aligned p va && Page_size.aligned p pa)
        tiles)

(* ------------------------------------------------------------------ *)
(* Mmap_tracker *)

let mk_tracker () = Mmap_tracker.create ~base:(16 * mb) ~bytes:(256 * mb) ~main_stack_bytes:(4 * mb)

let test_tracker_brk () =
  let t = mk_tracker () in
  check_int "initial" (16 * mb) (Result.get_ok (Mmap_tracker.brk t None));
  check_int "grow" (20 * mb) (Result.get_ok (Mmap_tracker.brk t (Some (20 * mb))));
  (match Mmap_tracker.brk t (Some (8 * mb)) with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "shrink below base accepted");
  (* cannot cross into the stack *)
  match Mmap_tracker.brk t (Some ((16 + 256) * mb)) with
  | Error Errno.ENOMEM -> ()
  | _ -> Alcotest.fail "brk into stack accepted"

let test_tracker_mmap_top_down () =
  let t = mk_tracker () in
  let a = Result.get_ok (Mmap_tracker.mmap t ~length:mb) in
  let b = Result.get_ok (Mmap_tracker.mmap t ~length:mb) in
  check_bool "below stack" true (a + mb <= Mmap_tracker.main_stack_lo t);
  check_int "descending" (a - mb) b;
  check_bool "mapped" true (Mmap_tracker.is_mapped t ~addr:a ~length:mb)

let test_tracker_munmap_coalesce () =
  let t = mk_tracker () in
  let a = Result.get_ok (Mmap_tracker.mmap t ~length:(2 * mb)) in
  let b = Result.get_ok (Mmap_tracker.mmap t ~length:(2 * mb)) in
  Result.get_ok (Mmap_tracker.munmap t ~addr:a ~length:(2 * mb));
  Result.get_ok (Mmap_tracker.munmap t ~addr:b ~length:(2 * mb));
  (* after freeing both, a 4 MB map must fit back in the same hole *)
  let c = Result.get_ok (Mmap_tracker.mmap t ~length:(4 * mb)) in
  check_int "reuses coalesced hole" b c

let test_tracker_partial_munmap () =
  let t = mk_tracker () in
  let a = Result.get_ok (Mmap_tracker.mmap t ~length:(3 * mb)) in
  Result.get_ok (Mmap_tracker.munmap t ~addr:(a + mb) ~length:mb);
  check_bool "head still mapped" true (Mmap_tracker.is_mapped t ~addr:a ~length:mb);
  check_bool "tail still mapped" true
    (Mmap_tracker.is_mapped t ~addr:(a + (2 * mb)) ~length:mb);
  check_bool "middle unmapped" false (Mmap_tracker.is_mapped t ~addr:(a + mb) ~length:mb)

let test_tracker_munmap_unmapped_fails () =
  let t = mk_tracker () in
  match Mmap_tracker.munmap t ~addr:(64 * mb) ~length:mb with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "freeing unmapped range accepted"

let test_tracker_brk_blocked_by_mmap () =
  let t = mk_tracker () in
  (* exhaust so that an mmap lands just above the break *)
  let total_free = Mmap_tracker.free_bytes t in
  let big = Result.get_ok (Mmap_tracker.mmap t ~length:(total_free - mb)) in
  (match Mmap_tracker.brk t (Some (big + mb)) with
  | Error Errno.ENOMEM -> ()
  | Ok _ -> Alcotest.fail "brk through mmap accepted"
  | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  check_bool "brk up to the mmap edge ok" true
    (Result.is_ok (Mmap_tracker.brk t (Some big)))

let prop_tracker_mmap_disjoint =
  QCheck.Test.make ~name:"mmap allocations never overlap" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 (8 * 1024 * 1024)))
    (fun sizes ->
      let t = mk_tracker () in
      let allocs =
        List.filter_map
          (fun len ->
            match Mmap_tracker.mmap t ~length:len with
            | Ok a -> Some (a, len)
            | Error _ -> None)
          sizes
      in
      let sorted = List.sort compare allocs in
      let rec disjoint = function
        | (a, la) :: ((b, _) :: _ as rest) -> a + la <= b && disjoint rest
        | _ -> true
      in
      disjoint sorted)

(* ------------------------------------------------------------------ *)
(* Futex + Persist units *)

let test_futex_fifo () =
  let f = Futex.create () in
  Futex.enqueue f ~pid:1 ~addr:100 ~tid:11;
  Futex.enqueue f ~pid:1 ~addr:100 ~tid:12;
  Futex.enqueue f ~pid:1 ~addr:100 ~tid:13;
  Alcotest.(check (list int)) "fifo wake" [ 11; 12 ] (Futex.wake f ~pid:1 ~addr:100 ~count:2);
  check_int "one left" 1 (Futex.waiting f ~pid:1 ~addr:100)

let test_futex_per_pid () =
  let f = Futex.create () in
  Futex.enqueue f ~pid:1 ~addr:100 ~tid:11;
  Futex.enqueue f ~pid:2 ~addr:100 ~tid:21;
  Alcotest.(check (list int)) "pid isolated" [ 11 ] (Futex.wake f ~pid:1 ~addr:100 ~count:10);
  check_int "other pid untouched" 1 (Futex.waiting f ~pid:2 ~addr:100)

let test_futex_remove () =
  let f = Futex.create () in
  Futex.enqueue f ~pid:1 ~addr:100 ~tid:11;
  check_bool "removed" true (Futex.remove f ~tid:11);
  check_bool "gone" false (Futex.remove f ~tid:11);
  check_int "empty" 0 (Futex.total_waiting f)

let test_persist_stable_va () =
  let p = Persist.create ~pool_base_pa:(1024 * mb) ~pool_bytes:(64 * mb) ~va_base:0xA000_0000 in
  let r1 = Result.get_ok (Persist.open_region p ~name:"data" ~bytes:mb ~owner:"u") in
  let r2 = Result.get_ok (Persist.open_region p ~name:"data" ~bytes:mb ~owner:"u") in
  check_int "same va" r1.Persist.va r2.Persist.va;
  let r3 = Result.get_ok (Persist.open_region p ~name:"other" ~bytes:mb ~owner:"u") in
  check_bool "distinct regions" true (r3.Persist.va <> r1.Persist.va)

let test_persist_privileges () =
  (* SSIV.D: persistent memory is preserved "assuming the correct
     privileges" -- another user cannot open the region *)
  let p = Persist.create ~pool_base_pa:(1024 * mb) ~pool_bytes:(64 * mb) ~va_base:0xA000_0000 in
  ignore (Result.get_ok (Persist.open_region p ~name:"secret" ~bytes:mb ~owner:"alice"));
  (match Persist.open_region p ~name:"secret" ~bytes:mb ~owner:"bob" with
  | Error Errno.EACCES -> ()
  | _ -> Alcotest.fail "expected EACCES");
  check_bool "owner still fine" true
    (Result.is_ok (Persist.open_region p ~name:"secret" ~bytes:mb ~owner:"alice"))

let test_persist_exhaustion () =
  let p = Persist.create ~pool_base_pa:0 ~pool_bytes:(2 * mb) ~va_base:0xA000_0000 in
  ignore (Result.get_ok (Persist.open_region p ~name:"a" ~bytes:(2 * mb) ~owner:"u"));
  match Persist.open_region p ~name:"b" ~bytes:1 ~owner:"u" with
  | Error Errno.ENOMEM -> ()
  | _ -> Alcotest.fail "expected ENOMEM"

(* ------------------------------------------------------------------ *)
(* End-to-end node tests *)

(* Run [f] as the single-process job body on a 1-node cluster; returns the
   cluster for post-mortem inspection. *)
let run_user ?(job_tweak = Fun.id) f =
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let image = Image.executable ~name:"testprog" (fun () -> f cluster) in
  let job = job_tweak (Job.create ~name:"test" image) in
  Cluster.run_job cluster job;
  cluster

let no_faults c = Alcotest.(check (list (pair int string))) "no faults" [] (Node.faults (Cluster.node c 0))

(* The syscalls [Kernel] answers for both kernels are tested on both: run
   [f] as a one-process job on a CNK or an FWK node and return the node's
   faults and, on CNK (the FWK keeps none), its exit codes. *)
let run_on kernel f =
  match kernel with
  | `Cnk ->
    let node = Cluster.node (run_user (fun _ -> f ())) 0 in
    (Node.faults node, Some (Node.exit_codes node))
  | `Fwk -> (Bg_fwk.Node.faults (Test_fwk.run_on_fwk f), None)

let test_job_runs_and_exits () =
  let ran = ref false in
  let c = run_user (fun _ -> Coro.consume 1000; ran := true) in
  check_bool "body ran" true !ran;
  no_faults c;
  check_bool "job done" true (not (Node.job_active (Cluster.node c 0)));
  Alcotest.(check (list (pair int int))) "exit 0" [ (1, 0) ] (Node.exit_codes (Cluster.node c 0))

(* A launch loads each process's static map onto every core it owns with
   one bulk TLB load: each core's UPC refill counter must still read the
   number of entries that map put on the core, as if each had been
   installed one at a time. *)
let test_launch_refills_per_core () =
  List.iter
    (fun (mode, owner) ->
      let cluster = Cluster.create ~dims:(1, 1, 1) () in
      Cluster.boot_all cluster;
      let chip = Machine.chip (Cluster.machine cluster) 0 in
      Upc.start (Chip.upc chip);
      Cluster.run_job cluster
        (Job.create ~mode ~name:"maps" (Image.executable ~name:"maps" (fun () -> Coro.consume 100)));
      let node = Cluster.node cluster 0 in
      for core = 0 to 3 do
        let pid = owner core + 1 in
        let pm =
          match Node.process_map node ~pid with
          | Some pm -> pm
          | None -> Alcotest.failf "no process %d" pid
        in
        let accepted = List.length (Mapping.tlb_entries pm) in
        check_bool "a map of several entries" true (accepted > 1);
        check_int "entries on the core" accepted (Tlb.entry_count (Chip.core chip core).Chip.tlb);
        check_int "refills on the core" accepted (Upc.read (Chip.upc chip) ~core Upc.Tlb_refill)
      done)
    [ (Job.Smp, fun _ -> 0); (Job.Dual, fun core -> core / 2); (Job.Vn, fun core -> core) ]

let test_identity_syscalls () =
  let seen = ref (0, 0, 0, "") in
  let c =
    run_user (fun _ ->
        let u = Rt.Libc.uname () in
        seen := (Rt.Libc.getpid (), Rt.Libc.gettid (), Rt.Libc.rank (), u.Sysreq.release))
  in
  let pid, tid, rank, release = !seen in
  check_int "pid" 1 pid;
  check_int "tid" 1 tid;
  check_int "rank" 0 rank;
  Alcotest.(check string) "uname release convinces glibc" "2.6.19.2" release;
  no_faults c

let test_malloc_poke_peek () =
  let got = ref 0 in
  let c =
    run_user (fun _ ->
        let a = Rt.Malloc.malloc 4096 in
        Rt.Libc.poke a 424242;
        let b = Rt.Malloc.malloc (4 * mb) in
        (* over the threshold: must come from the mmap window, far above brk *)
        Rt.Libc.poke b 777;
        got := Rt.Libc.peek a + Rt.Libc.peek b;
        Rt.Malloc.free a;
        Rt.Malloc.free b)
  in
  check_int "values survive" (424242 + 777) !got;
  no_faults c

let test_function_shipped_io () =
  let read_back = ref "" in
  let c =
    run_user (fun _ ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "out.dat" in
        ignore (Rt.Libc.write_string fd "hello from rank 0");
        ignore (Rt.Libc.lseek fd ~offset:6 ~whence:Sysreq.Seek_set);
        read_back := Bytes.to_string (Rt.Libc.read fd ~len:4);
        Rt.Libc.close fd)
  in
  Alcotest.(check string) "seek+read through CIOD" "from" !read_back;
  (* the data really lives on the I/O node's filesystem *)
  let fs = Cluster.fs c in
  let inode = Result.get_ok (Bg_cio.Fs.resolve fs ~cwd:"/" "/out.dat") in
  Alcotest.(check string) "content on io node" "hello from rank 0"
    (Bytes.to_string (Result.get_ok (Bg_cio.Fs.read fs inode ~offset:0 ~len:100)));
  no_faults c

let test_io_errno_passthrough () =
  let errno = ref "" in
  let c =
    run_user (fun _ ->
        try ignore (Rt.Libc.openf ~flags:Sysreq.o_rdonly "/no/such/file")
        with Sysreq.Syscall_error e -> errno := Errno.to_string e)
  in
  Alcotest.(check string) "Linux errno comes back" "ENOENT" !errno;
  no_faults c

let test_io_disabled_enosys () =
  let errno = ref "" in
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  Node.set_io_enabled (Cluster.node cluster 0) false;
  let image =
    Image.executable ~name:"noio" (fun () ->
        try ignore (Rt.Libc.openf "x") with Sysreq.Syscall_error e -> errno := Errno.to_string e)
  in
  Cluster.run_job cluster (Job.create ~name:"noio" image);
  Alcotest.(check string) "ENOSYS when shipped io off" "ENOSYS" !errno

let test_mmap_file_copy_in () =
  let contents = ref "" in
  let c =
    run_user (fun cluster ->
        ignore cluster;
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "lib.bin" in
        ignore (Rt.Libc.write_string fd "SHAREDLIBRARYDATA");
        let addr = Rt.Libc.mmap_file ~fd ~length:17 ~offset:0 in
        Rt.Libc.close fd;
        contents := Bytes.to_string (Coro.load ~addr ~len:17);
        (* CNK does not enforce text permissions: this store succeeds *)
        Coro.store ~addr (Bytes.of_string "X"))
  in
  Alcotest.(check string) "whole file copied at map time" "SHAREDLIBRARYDATA" !contents;
  no_faults c

let test_pthread_mutex_counter () =
  let total = ref (-1) in
  let c =
    run_user (fun _ ->
        let m = Rt.Pthread.Mutex.create () in
        let counter = Rt.Malloc.malloc 8 in
        Rt.Libc.poke counter 0;
        let bump () =
          for _ = 1 to 50 do
            Rt.Pthread.Mutex.lock m;
            Coro.consume 100;
            Rt.Libc.poke counter (Rt.Libc.peek counter + 1);
            Rt.Pthread.Mutex.unlock m
          done
        in
        let workers = List.init 3 (fun _ -> Rt.Pthread.create bump) in
        bump ();
        List.iter Rt.Pthread.join workers;
        total := Rt.Libc.peek counter;
        Rt.Pthread.Mutex.destroy m)
  in
  check_int "no lost increments" 200 !total;
  no_faults c

let test_pthread_barrier_and_cond () =
  let order_ok = ref false in
  let c =
    run_user (fun _ ->
        let b = Rt.Pthread.Barrier.create ~parties:4 in
        let pre = Rt.Malloc.malloc 8 and ok = Rt.Malloc.malloc 8 in
        Rt.Libc.poke pre 0;
        Rt.Libc.poke ok 0;
        let worker () =
          ignore (Coro.fetch_add ~addr:pre 1);
          Rt.Pthread.Barrier.wait b;
          (* after the barrier, every pre-barrier increment is visible *)
          if Rt.Libc.peek pre = 4 then ignore (Coro.fetch_add ~addr:ok 1)
        in
        let ws = List.init 3 (fun _ -> Rt.Pthread.create worker) in
        worker ();
        List.iter Rt.Pthread.join ws;
        order_ok := Rt.Libc.peek ok = 4)
  in
  check_bool "barrier separates phases" true !order_ok;
  no_faults c

let test_clone_flag_validation () =
  let errno = ref "" in
  let c =
    run_user (fun _ ->
        let bad = { Sysreq.nptl_clone_flags with Sysreq.vm = false } in
        match
          Coro.syscall
            (Sysreq.Clone
               { flags = bad; stack_hint = 0; tls = 0; parent_tid_addr = 0;
                 child_tid_addr = 0; entry = (fun () -> ()) })
        with
        | Sysreq.R_err e -> errno := Errno.to_string e
        | _ -> ())
  in
  Alcotest.(check string) "non-NPTL flags rejected" "EINVAL" !errno;
  no_faults c

let test_thread_overcommit_eagain () =
  (* SMP mode, 3 threads/core, 4 cores: 12 slots. Main occupies one, so
     the 12th extra create must fail with EAGAIN (no overcommit, §VII.B). *)
  let failures = ref 0 in
  let created = ref 0 in
  let c =
    run_user (fun _ ->
        let stop = Rt.Pthread.Mutex.create () in
        Rt.Pthread.Mutex.lock stop;
        let keepalive () = Rt.Pthread.Mutex.lock stop; Rt.Pthread.Mutex.unlock stop in
        let handles = ref [] in
        for _ = 1 to 12 do
          match Rt.Pthread.create keepalive with
          | h -> incr created; handles := h :: !handles
          | exception Sysreq.Syscall_error Errno.EAGAIN -> incr failures
        done;
        Rt.Pthread.Mutex.unlock stop;
        List.iter Rt.Pthread.join !handles)
  in
  check_int "11 fit" 11 !created;
  check_int "12th rejected" 1 !failures;
  no_faults c

let test_guard_page_kills_stack_smash () =
  let c =
    run_user (fun _ ->
        (* smash: store into the guard range just above the break *)
        let brk = Rt.Libc.brk_now () in
        Coro.store ~addr:(brk + 100) (Bytes.of_string "boom");
        Alcotest.fail "store through guard must not return")
  in
  match Node.faults (Cluster.node c 0) with
  | [ (_, reason) ] ->
    check_bool "killed by signal 11" true
      (String.length reason > 0 && reason = "unhandled signal 11")
  | l -> Alcotest.failf "expected one fault, got %d" (List.length l)

let test_guard_page_handler_recovers () =
  let recovered = ref false in
  let c =
    run_user (fun _ ->
        Sysreq.expect_unit
          (Coro.syscall
             (Sysreq.Sigaction { signo = 11; handler = Some (fun _ -> recovered := true) }));
        let brk = Rt.Libc.brk_now () in
        Coro.store ~addr:(brk + 100) (Bytes.of_string "boom");
        (* handler ran; the faulting store was dropped; we keep going *)
        Coro.consume 10)
  in
  check_bool "handler ran" true !recovered;
  no_faults c

let test_heap_extension_repositions_guard_via_ipi () =
  let c =
    run_user (fun _ ->
        let before_brk = Rt.Libc.brk_now () in
        (* A worker on another core grows the heap... *)
        let w =
          Rt.Pthread.create (fun () ->
              ignore (Rt.Libc.sbrk (8 * mb));
              (* give the IPI time to land before main touches memory *)
              Coro.consume 5_000)
        in
        Rt.Pthread.join w;
        (* ...after which the main thread may legitimately store where the
           guard used to be. *)
        Coro.store ~addr:(before_brk + 100) (Bytes.of_string "now legal");
        Coro.consume 10)
  in
  no_faults c;
  check_bool "an IPI was raised" true (Node.ipi_count (Cluster.node c 0) >= 1)

let test_persistent_memory_across_jobs () =
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let va_job1 = ref 0 and va_job2 = ref 0 and sum = ref 0 in
  (* Job 1 builds a pointer-linked list of three cells inside the region. *)
  let writer =
    Image.executable ~name:"writer" (fun () ->
        let base = Rt.Libc.shm_open_persistent ~name:"ckpt" ~length:mb in
        va_job1 := base;
        (* cell layout: [value; next_ptr] *)
        let cell addr value next =
          Rt.Libc.poke addr value;
          Rt.Libc.poke (addr + 8) next
        in
        cell base 10 (base + 64);
        cell (base + 64) 20 (base + 128);
        cell (base + 128) 30 0)
  in
  Cluster.run_job cluster (Job.create ~name:"writer" writer);
  (* Job 2 walks the pointers: valid only if the va is preserved. *)
  let reader =
    Image.executable ~name:"reader" (fun () ->
        let base = Rt.Libc.shm_open_persistent ~name:"ckpt" ~length:mb in
        va_job2 := base;
        let rec walk addr acc =
          if addr = 0 then acc
          else walk (Rt.Libc.peek (addr + 8)) (acc + Rt.Libc.peek addr)
        in
        sum := walk base 0)
  in
  Cluster.run_job cluster (Job.create ~name:"reader" reader);
  check_int "same va across jobs" !va_job1 !va_job2;
  check_int "linked list intact" 60 !sum;
  no_faults cluster

let test_persistent_memory_denied_across_users () =
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let writer =
    Image.executable ~name:"w" (fun () ->
        ignore (Rt.Libc.shm_open_persistent ~name:"private" ~length:mb))
  in
  Cluster.run_job cluster (Job.create ~user:"alice" ~name:"w" writer);
  let denied = ref "" in
  let thief =
    Image.executable ~name:"t" (fun () ->
        try ignore (Rt.Libc.shm_open_persistent ~name:"private" ~length:mb)
        with Sysreq.Syscall_error e -> denied := Errno.to_string e)
  in
  Cluster.run_job cluster (Job.create ~user:"bob" ~name:"t" thief);
  Alcotest.(check string) "other user denied" "EACCES" !denied

let test_dlopen_dlsym () =
  let result = ref 0 in
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let lib =
    Image.library ~name:"libumt" ~text_bytes:(2 * mb)
      [ { Image.symbol_name = "transport_sweep"; fn = (fun x -> (x * 2) + 1) } ]
  in
  let path = Rt.Ld_so.install_library (Cluster.fs cluster) lib in
  let prog =
    Image.executable ~name:"pydriver" (fun () ->
        let h = Rt.Ld_so.dlopen path in
        result := Rt.Ld_so.dlsym h "transport_sweep" 20;
        (* §IV.B.2: text of dynamic objects is not write-protected *)
        Rt.Ld_so.text_writable_demo h;
        Rt.Ld_so.dlclose h)
  in
  Cluster.run_job cluster (Job.create ~name:"py" prog);
  check_int "symbol called through dlopen" 41 !result;
  no_faults cluster

let test_tgkill_interrupts_futex_wait kernel () =
  let observed = ref "" in
  let faults, _ =
    run_on kernel (fun () ->
        let word = Rt.Malloc.malloc 8 in
        Rt.Libc.poke word 1;
        let main_tid = Rt.Libc.gettid () in
        let waiter_tid = Rt.Malloc.malloc 8 in
        Rt.Libc.poke waiter_tid 0;
        let w =
          Rt.Pthread.create (fun () ->
              Rt.Libc.poke waiter_tid (Rt.Libc.gettid ());
              Sysreq.expect_unit
                (Coro.syscall (Sysreq.Sigaction { signo = 10; handler = Some (fun _ -> ()) }));
              match Coro.syscall (Sysreq.Futex_wait { addr = word; expected = 1 }) with
              | Sysreq.R_err Errno.EINTR -> observed := "EINTR"
              | Sysreq.R_int _ -> observed := "woken"
              | _ -> observed := "other")
        in
        ignore main_tid;
        (* wait until the worker has published its tid and blocked *)
        Coro.consume 50_000;
        Sysreq.expect_unit
          (Coro.syscall (Sysreq.Tgkill { tid = Rt.Libc.peek waiter_tid; signo = 10 }));
        Rt.Pthread.join w)
  in
  Alcotest.(check string) "futex wait interrupted" "EINTR" !observed;
  Alcotest.(check (list (pair int string))) "no faults" [] faults

let test_openmp_parallel_for () =
  let total = ref 0 in
  let c =
    run_user (fun _ ->
        let acc = Rt.Malloc.malloc 8 in
        Rt.Libc.poke acc 0;
        Rt.Openmp.parallel_for ~num_threads:4 ~lo:0 ~hi:100 (fun ~thread_num:_ i ->
            Coro.consume 50;
            ignore (Coro.fetch_add ~addr:acc i));
        total := Rt.Libc.peek acc)
  in
  check_int "sum 0..99" 4950 !total;
  no_faults c

let test_query_map_and_vtop () =
  let identity = ref false and heap_pa = ref 0 in
  let c =
    run_user (fun _ ->
        let map = Rt.Libc.query_map () in
        identity := List.exists (fun r -> r.Sysreq.kind = Sysreq.Text && r.Sysreq.paddr = 0) map;
        let a = Rt.Malloc.malloc 64 in
        heap_pa := Rt.Libc.virtual_to_physical a)
  in
  check_bool "text identity-mapped for proc 0" true !identity;
  check_bool "user space can learn v->p" true (!heap_pa > 0);
  no_faults c

let test_exit_group_kills_all kernel () =
  let after = ref false in
  let _, exit_codes =
    run_on kernel (fun () ->
        let _w =
          Rt.Pthread.create (fun () ->
              Coro.consume 1_000_000;
              after := true (* must never run *))
        in
        Coro.consume 1000;
        ignore (Rt.Libc.exit_group 7))
  in
  check_bool "worker killed before running on" false !after;
  Option.iter
    (Alcotest.(check (list (pair int int))) "exit code recorded" [ (1, 7) ])
    exit_codes

let test_vn_mode_four_processes () =
  let pids = ref [] in
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let image =
    Image.executable ~name:"vn" (fun () ->
        (* read the pid into a local first: the ref update must not span an
           effect suspension or concurrent mains lose updates *)
        let pid = Rt.Libc.getpid () in
        pids := pid :: !pids)
  in
  Cluster.run_job cluster (Job.create ~mode:Job.Vn ~name:"vn" image);
  check_int "four processes ran" 4 (List.length !pids);
  Alcotest.(check (list int)) "distinct pids" [ 1; 2; 3; 4 ] (List.sort compare !pids)

(* Exited processes stay in the node's table, so jobs launched with the
   same layout share one copy of the map instead of keeping one each. *)
let test_same_layout_shares_map () =
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let node = Cluster.node cluster 0 in
  let image name = Image.executable ~name (fun () -> ()) in
  Cluster.run_job cluster (Job.create ~name:"a" (image "a"));
  Cluster.run_job cluster (Job.create ~name:"b" (image "b"));
  Cluster.run_job cluster (Job.create ~mode:Job.Dual ~name:"c" (image "c"));
  let map pid =
    match Node.process_map node ~pid with
    | Some m -> m
    | None -> Alcotest.failf "no map for pid %d" pid
  in
  check_int "every process kept" 4 (Node.process_count node);
  check_bool "same config, same map" true (map 1 == map 2);
  check_bool "other config, own map" false (map 1 == map 3);
  check_bool "dual ranks differ" false (map 3 == map 4);
  Alcotest.(check (list int))
    "each process gets its own slot of the map" [ 0; 0; 0; 1 ]
    (List.map (fun pid -> (map pid).Mapping.proc_index) [ 1; 2; 3; 4 ])

let test_io_holds_the_core () =
  (* SSVI.C: "I/O function shipping is made trivial by not yielding the
     core to another thread during an I/O system call" — a ready thread
     on the same core must NOT run while its sibling waits for CIOD *)
  let b_ran_during_io = ref false and io_window = ref (0, 0) in
  let c =
    run_user (fun _ ->
        (* force both threads onto core 0: threads_per_core default 3, but
           clone picks the least-loaded core — so take all cores first *)
        let parked = List.init 3 (fun _ -> Rt.Pthread.create (fun () -> Coro.consume 2_000_000)) in
        (* cores 1-3 now busy; the next create lands on core 0 with main *)
        let b =
          Rt.Pthread.create (fun () ->
              let t = Coro.rdtsc () in
              let lo, hi = !io_window in
              if lo > 0 && t >= lo && t <= hi then b_ran_during_io := true)
        in
        (* b is Ready on core 0 behind main; main now does shipped I/O *)
        let t0 = Coro.rdtsc () in
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "f" in
        ignore (Rt.Libc.write_string fd "x");
        Rt.Libc.close fd;
        io_window := (t0, Coro.rdtsc ());
        (* only after main blocks on join does b get the core *)
        Rt.Pthread.join b;
        List.iter Rt.Pthread.join parked)
  in
  no_faults c;
  check_bool "sibling never ran during the I/O wait" false !b_ran_during_io

let test_same_core_yield_alternation () =
  (* two threads sharing one core alternate only at yields *)
  let log = ref [] in
  let c =
    run_user (fun _ ->
        let parked = List.init 3 (fun _ -> Rt.Pthread.create (fun () -> Coro.consume 3_000_000)) in
        let b =
          Rt.Pthread.create (fun () ->
              for _ = 1 to 3 do
                log := "b" :: !log;
                Rt.Pthread.yield ()
              done)
        in
        for _ = 1 to 3 do
          log := "a" :: !log;
          Rt.Pthread.yield ()
        done;
        Rt.Pthread.join b;
        List.iter Rt.Pthread.join parked)
  in
  no_faults c;
  (* strict alternation once both are on the core *)
  let s = String.concat "" (List.rev !log) in
  check_bool "alternated" true (s = "ababab" || s = "aababb" || s = "abab" ^ "ab")

let test_no_fork_exec () =
  (* SSVII.B: "MPI cannot spawn dynamic tasks because CNK does not allow
     fork/exec" - a process-style clone (no shared vm) is rejected *)
  let errno = ref "" in
  let c =
    run_user (fun _ ->
        let fork_flags = { Sysreq.nptl_clone_flags with Sysreq.vm = false; thread = false } in
        match
          Coro.syscall
            (Sysreq.Clone
               { flags = fork_flags; stack_hint = 0; tls = 0; parent_tid_addr = 0;
                 child_tid_addr = 0; entry = (fun () -> ()) })
        with
        | Sysreq.R_err e -> errno := Errno.to_string e
        | _ -> ())
  in
  Alcotest.(check string) "fork rejected" "EINVAL" !errno;
  no_faults c

let test_memory_divided_evenly_can_strand () =
  (* SSVII.B: "CNK divides memory evenly among the tasks; if one task's
     memory grows more than another, the application could run out of
     memory before all the memory of the node was consumed" *)
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let hit_enomem = ref false in
  let image =
    Image.executable ~name:"hog" (fun () ->
        if Rt.Libc.getpid () = 1 then begin
          (* pid 1 tries to take more than its quarter *)
          try
            for _ = 1 to 10_000 do
              ignore (Rt.Libc.mmap_anon ~length:(64 * mb))
            done
          with Sysreq.Syscall_error Errno.ENOMEM -> hit_enomem := true
        end)
  in
  Cluster.run_job cluster (Job.create ~mode:Job.Vn ~name:"hog" image);
  check_bool "one task exhausts its share" true !hit_enomem;
  (* meanwhile the node had 3 other untouched heaps: by construction each
     process held an equal share (asserted by the mapping tests) *)
  no_faults cluster

let test_personality () =
  let cluster = Cluster.create ~dims:(4, 2, 1) () in
  Cluster.boot_all cluster;
  let got = Array.make 8 None in
  let image =
    Image.executable ~name:"pers" (fun () ->
        let p = Rt.Libc.personality () in
        got.(p.Sysreq.p_rank) <- Some p)
  in
  Cluster.run_job cluster (Job.create ~name:"pers" image);
  Array.iteri
    (fun rank p ->
      match p with
      | None -> Alcotest.failf "rank %d missing" rank
      | Some p ->
        check_int "rank" rank p.Sysreq.p_rank;
        Alcotest.(check bool) "coords roundtrip" true
          (Bg_hw.Torus.rank_of_coord
             (Cluster.machine cluster).Machine.torus p.Sysreq.p_coords
          = rank);
        Alcotest.(check bool) "dims" true (p.Sysreq.p_dims = (4, 2, 1));
        check_int "clock mhz" 850 p.Sysreq.p_clock_mhz;
        check_int "one pset" 0 p.Sysreq.p_pset)
    got

let test_syscall_error_paths kernel () =
  let results = ref [] in
  let record name v = results := (name, v) :: !results in
  let faults, _ =
    run_on kernel (fun () ->
        (* munmap of an unmapped range *)
        (match Coro.syscall (Sysreq.Munmap { addr = 0x5000_0000; length = 4096 }) with
        | Sysreq.R_err Errno.EINVAL -> record "munmap" "EINVAL"
        | _ -> record "munmap" "?");
        (* CNK only: the FWK answers vtop with ENOSYS by design, and its
           3 GB heap accepts this break *)
        if kernel = `Cnk then begin
          (* vtop of an unmapped address *)
          (match Coro.syscall (Sysreq.Query_vtop 0x9E00_0000) with
          | Sysreq.R_err Errno.EFAULT -> record "vtop" "EFAULT"
          | _ -> record "vtop" "?");
          (* brk beyond the heap/stack region *)
          match Coro.syscall (Sysreq.Brk (Some 0x9F00_0000)) with
          | Sysreq.R_err Errno.ENOMEM -> record "brk" "ENOMEM"
          | _ -> record "brk" "?"
        end;
        (* tgkill of a nonexistent thread *)
        (match Coro.syscall (Sysreq.Tgkill { tid = 4242; signo = 10 }) with
        | Sysreq.R_err Errno.ESRCH -> record "tgkill" "ESRCH"
        | _ -> record "tgkill" "?");
        (* futex wait with a mismatched value *)
        let w = Rt.Malloc.malloc 8 in
        Rt.Libc.poke w 5;
        match Coro.syscall (Sysreq.Futex_wait { addr = w; expected = 6 }) with
        | Sysreq.R_err Errno.EAGAIN -> record "futex" "EAGAIN"
        | _ -> record "futex" "?")
  in
  Alcotest.(check (list (pair int string))) "no faults" [] faults;
  Alcotest.(check (list (pair string string))) "all errnos correct"
    ([ ("munmap", "EINVAL") ]
    @ (if kernel = `Cnk then [ ("vtop", "EFAULT"); ("brk", "ENOMEM") ] else [])
    @ [ ("tgkill", "ESRCH"); ("futex", "EAGAIN") ])
    (List.rev !results)

let test_text_region_write_protected () =
  (* the static map installs text as r-x: a store into the main text
     faults (only DYNAMIC objects skip protection, SSIV.B.2) *)
  let c = run_user (fun _ -> Coro.store ~addr:Mapping.text_va (Bytes.of_string "x")) in
  match Node.faults (Cluster.node c 0) with
  | [ (_, _) ] -> ()
  | l -> Alcotest.failf "expected the text store to fault, got %d faults" (List.length l)

let test_sysreq_pretty_printers () =
  let s r = Format.asprintf "%a" Sysreq.pp_request r in
  Alcotest.(check string) "write" "write(fd=3, 5 bytes)"
    (s (Sysreq.Write { fd = 3; data = Bytes.create 5 }));
  Alcotest.(check string) "open" {|open("/a", RD|WR, 0o644)|}
    (s (Sysreq.Open { path = "/a"; flags = Sysreq.o_rdwr; mode = 0o644 }));
  Alcotest.(check string) "brk" "brk(0x1000)" (s (Sysreq.Brk (Some 4096)));
  Alcotest.(check string) "futex" "futex_wait(0xff, expected=2)"
    (s (Sysreq.Futex_wait { addr = 255; expected = 2 }));
  let p v = Format.asprintf "%a" Sysreq.pp_reply v in
  Alcotest.(check string) "err" "-ENOENT" (p (Sysreq.R_err Errno.ENOENT));
  Alcotest.(check string) "bytes" "<7 bytes>" (p (Sysreq.R_bytes (Bytes.create 7)))

let test_reproducible_two_runs_identical () =
  let run () =
    let cluster = Cluster.create ~dims:(1, 1, 1) ~seed:42L () in
    Cluster.boot_all cluster;
    let image =
      Image.executable ~name:"repro" (fun () ->
          let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "r.dat" in
          for i = 1 to 10 do
            Coro.consume (1000 * i);
            ignore (Rt.Libc.write_string fd "x")
          done;
          Rt.Libc.close fd)
    in
    Cluster.run_job cluster (Job.create ~name:"repro" image);
    ( Trace.digest (Sim.trace (Cluster.sim cluster)),
      Sim.now (Cluster.sim cluster),
      Node.scan_state (Cluster.node cluster 0) )
  in
  let d1, t1, s1 = run () in
  let d2, t2, s2 = run () in
  check_bool "trace digests equal" true (Fnv.equal d1 d2);
  check_int "completion cycle equal" t1 t2;
  check_bool "scan state equal" true (Fnv.equal s1 s2)

let test_reset_self_refresh_preserves_persist () =
  let cluster = Cluster.create ~dims:(1, 1, 1) () in
  Cluster.boot_all cluster;
  let writer =
    Image.executable ~name:"w" (fun () ->
        let base = Rt.Libc.shm_open_persistent ~name:"boot-data" ~length:mb in
        Rt.Libc.poke base 123456)
  in
  Cluster.run_job cluster (Job.create ~name:"w" writer);
  let node = Cluster.node cluster 0 in
  let pa =
    match Persist.find (Node.persist node) ~name:"boot-data" with
    | Some r -> r.Persist.pa
    | None -> Alcotest.fail "region missing"
  in
  let rebooted = ref false in
  Node.prepare_and_reset node ~reproducible:true ~on_ready:(fun () -> rebooted := true);
  Cluster.run_until_quiet cluster;
  check_bool "rebooted" true !rebooted;
  let v = Bg_hw.Memory.read_int64 (Bg_hw.Chip.memory (Node.chip node)) ~addr:pa in
  Alcotest.(check int64) "self-refresh preserved DRAM" 123456L v

(* ------------------------------------------------------------------ *)
(* Image text *)

let test_image_pattern_matches_rng_draws () =
  List.iter
    (fun (name, len) ->
      let image = Image.executable ~name (fun () -> ()) in
      let r = Rng.create (Rng.seed_of_string name) in
      let expected = Bytes.create len in
      for i = 0 to len - 1 do
        Bytes.set_uint8 expected i (Rng.int r 256)
      done;
      Alcotest.(check bytes)
        (Printf.sprintf "%s, %d bytes" name len)
        expected (Node.image_pattern image len))
    [ ("fwq", 4096); ("halo", 4096); ("iobench", 7); ("a", 1); ("a", 0) ];
  (* and the stream is left where the per-byte draws leave it *)
  let a = Rng.create 42L and b = Rng.create 42L in
  Rng.fill_bytes a (Bytes.create 13);
  for _ = 1 to 13 do
    ignore (Rng.int b 256)
  done;
  Alcotest.(check int64) "stream position" (Rng.next_int64 b) (Rng.next_int64 a)

(* ------------------------------------------------------------------ *)
(* The timebase: a user-mode register read, no trap *)

(* Two machines stepped one event at a time, in turn: a thread on each
   must read its own machine's clock, not the other's. *)
let test_rdtsc_reads_own_machine () =
  let booted () =
    let c = Cluster.create ~dims:(1, 1, 1) () in
    Cluster.boot_all c;
    c
  in
  let a = booted () and b = booted () in
  let mismatches = ref 0 and reads = ref [] in
  let launch c work =
    let sim = Cluster.sim c in
    Cluster.launch_all c
      (Job.create ~name:"tb"
         (Image.executable ~name:"tb" (fun () ->
              for i = 1 to 40 do
                let t = Coro.rdtsc () in
                if t <> Sim.now sim then incr mismatches;
                reads := t :: !reads;
                Coro.consume (work * i)
              done)))
  in
  launch a 1_000;
  launch b 7_919;
  let rec drive () =
    let fa = Sim.step (Cluster.sim a) in
    let fb = Sim.step (Cluster.sim b) in
    if fa || fb then drive ()
  in
  drive ();
  check_int "80 reads" 80 (List.length !reads);
  check_int "each read its own machine's now" 0 !mismatches;
  check_bool "the two clocks differed" true (Sim.now (Cluster.sim a) <> Sim.now (Cluster.sim b))

(* On CNK a consume costs exactly its cycles plus the DRAM refresh stalls
   it spans; reading the timebase around it costs nothing. *)
let test_rdtsc_brackets_consume_exactly () =
  let p = Params.bgp in
  let interval = p.Params.dram_refresh_interval_cycles in
  let stall = p.Params.dram_refresh_stall_cycles in
  let got = ref [] in
  let c =
    run_user (fun _ ->
        List.iter
          (fun n ->
            let t0 = Coro.rdtsc () in
            Coro.consume n;
            let t1 = Coro.rdtsc () in
            got := (t0, n, t1) :: !got)
          [ 1; 100; interval - 1; interval; 3 * interval; 658_958; 12_345 ])
  in
  no_faults c;
  check_int "seven samples" 7 (List.length !got);
  let stalls =
    List.fold_left
      (fun acc (t0, n, t1) ->
        let k = ((t0 + n) / interval) - (t0 / interval) in
        check_int (Printf.sprintf "consume %d from %d" n t0) (n + (k * stall)) (t1 - t0);
        acc + k)
      0 !got
  in
  check_bool "some refresh stall was paid" true (stalls > 0)

(* Minor words per FWQ sample ([rdtsc; consume; rdtsc]) in a one-thread
   job, measured inside the job after a warm-up pass, so the count is
   everything the sample costs: effects, kernel, event queue. *)
let fwq_sample_words kernel =
  let samples = 2_000 in
  let words = ref nan in
  let faults, _ =
    run_on kernel (fun () ->
        let out = Array.make samples 0 in
        let sample i =
          let t0 = Coro.rdtsc () in
          Coro.consume Bg_apps.Daxpy.quantum_cycles;
          out.(i) <- Coro.rdtsc () - t0
        in
        for i = 0 to samples - 1 do
          sample i
        done;
        let before = Gc.minor_words () in
        for i = 0 to samples - 1 do
          sample i
        done;
        words := (Gc.minor_words () -. before) /. float_of_int samples)
  in
  Alcotest.(check (list (pair int string))) "no faults" [] faults;
  !words

let check_words name ~limit words =
  if not (words <= float_of_int limit) then
    Alcotest.failf "%s: %.1f minor words, more than %d" name words limit

let test_rdtsc_allocates_nothing () =
  let calls = 10_000 in
  let words = ref nan in
  let c =
    run_user (fun _ ->
        let before = Gc.minor_words () in
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (Coro.rdtsc ()))
        done;
        words := Gc.minor_words () -. before)
  in
  no_faults c;
  if !words > 0. then Alcotest.failf "Coro.rdtsc: %.0f words over %d calls" !words calls

let test_fwq_sample_words_cnk () = check_words "CNK FWQ sample" ~limit:26 (fwq_sample_words `Cnk)
let test_fwq_sample_words_fwk () = check_words "FWK FWQ sample" ~limit:75 (fwq_sample_words `Fwk)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest [ prop_tile_alignment; prop_tracker_mmap_disjoint ]

let suite =
  [
    Alcotest.test_case "mapping: smp layout" `Quick test_mapping_smp;
    Alcotest.test_case "launch: refills per core = static map entries" `Quick
      test_launch_refills_per_core;
    Alcotest.test_case "image: text = per-byte rng draws" `Quick
      test_image_pattern_matches_rng_draws;
    Alcotest.test_case "mapping: pa disjoint" `Quick test_mapping_no_overlap_pa;
    Alcotest.test_case "mapping: vn even split" `Quick test_mapping_vn_equal_split;
    Alcotest.test_case "mapping: escalates floor" `Quick test_mapping_escalates_floor;
    Alcotest.test_case "mapping: tight memory" `Quick test_mapping_too_small_fails;
    Alcotest.test_case "mapping: bad nprocs" `Quick test_mapping_rejects_bad_nprocs;
    Alcotest.test_case "mapping: tile coverage" `Quick test_tile_covers_exactly;
    Alcotest.test_case "tracker: brk" `Quick test_tracker_brk;
    Alcotest.test_case "tracker: mmap top-down" `Quick test_tracker_mmap_top_down;
    Alcotest.test_case "tracker: coalesce" `Quick test_tracker_munmap_coalesce;
    Alcotest.test_case "tracker: partial munmap" `Quick test_tracker_partial_munmap;
    Alcotest.test_case "tracker: bad munmap" `Quick test_tracker_munmap_unmapped_fails;
    Alcotest.test_case "tracker: brk blocked by mmap" `Quick test_tracker_brk_blocked_by_mmap;
    Alcotest.test_case "futex: fifo" `Quick test_futex_fifo;
    Alcotest.test_case "futex: per pid" `Quick test_futex_per_pid;
    Alcotest.test_case "futex: remove" `Quick test_futex_remove;
    Alcotest.test_case "persist: stable va" `Quick test_persist_stable_va;
    Alcotest.test_case "persist: privileges" `Quick test_persist_privileges;
    Alcotest.test_case "persist: exhaustion" `Quick test_persist_exhaustion;
    Alcotest.test_case "node: job runs" `Quick test_job_runs_and_exits;
    Alcotest.test_case "node: identity syscalls" `Quick test_identity_syscalls;
    Alcotest.test_case "node: malloc/poke/peek" `Quick test_malloc_poke_peek;
    Alcotest.test_case "node: function-shipped io" `Quick test_function_shipped_io;
    Alcotest.test_case "node: errno passthrough" `Quick test_io_errno_passthrough;
    Alcotest.test_case "node: io disabled" `Quick test_io_disabled_enosys;
    Alcotest.test_case "node: mmap file copy-in" `Quick test_mmap_file_copy_in;
    Alcotest.test_case "node: mutex counter" `Quick test_pthread_mutex_counter;
    Alcotest.test_case "node: barrier + visibility" `Quick test_pthread_barrier_and_cond;
    Alcotest.test_case "node: clone validation" `Quick test_clone_flag_validation;
    Alcotest.test_case "node: overcommit EAGAIN" `Quick test_thread_overcommit_eagain;
    Alcotest.test_case "node: guard kills smash" `Quick test_guard_page_kills_stack_smash;
    Alcotest.test_case "node: guard handler recovers" `Quick test_guard_page_handler_recovers;
    Alcotest.test_case "node: guard IPI reposition" `Quick
      test_heap_extension_repositions_guard_via_ipi;
    Alcotest.test_case "node: persistent memory" `Quick test_persistent_memory_across_jobs;
    Alcotest.test_case "node: persist denied across users" `Quick
      test_persistent_memory_denied_across_users;
    Alcotest.test_case "node: dlopen/dlsym" `Quick test_dlopen_dlsym;
    Alcotest.test_case "node: tgkill EINTR" `Quick (test_tgkill_interrupts_futex_wait `Cnk);
    Alcotest.test_case "node: tgkill EINTR (fwk)" `Quick (test_tgkill_interrupts_futex_wait `Fwk);
    Alcotest.test_case "node: openmp" `Quick test_openmp_parallel_for;
    Alcotest.test_case "node: query map / vtop" `Quick test_query_map_and_vtop;
    Alcotest.test_case "node: exit_group" `Quick (test_exit_group_kills_all `Cnk);
    Alcotest.test_case "node: exit_group (fwk)" `Quick (test_exit_group_kills_all `Fwk);
    Alcotest.test_case "node: vn mode" `Quick test_vn_mode_four_processes;
    Alcotest.test_case "node: same layout shares its map" `Quick test_same_layout_shares_map;
    Alcotest.test_case "node: io holds the core" `Quick test_io_holds_the_core;
    Alcotest.test_case "node: same-core yield" `Quick test_same_core_yield_alternation;
    Alcotest.test_case "node: no fork/exec" `Quick test_no_fork_exec;
    Alcotest.test_case "node: even split strands memory" `Quick
      test_memory_divided_evenly_can_strand;
    Alcotest.test_case "node: personality" `Quick test_personality;
    Alcotest.test_case "node: syscall error paths" `Quick (test_syscall_error_paths `Cnk);
    Alcotest.test_case "node: syscall error paths (fwk)" `Quick (test_syscall_error_paths `Fwk);
    Alcotest.test_case "node: text write-protected" `Quick test_text_region_write_protected;
    Alcotest.test_case "sysreq: pretty printers" `Quick test_sysreq_pretty_printers;
    Alcotest.test_case "node: reproducible runs" `Quick test_reproducible_two_runs_identical;
    Alcotest.test_case "node: reset preserves persist" `Quick
      test_reset_self_refresh_preserves_persist;
    Alcotest.test_case "timebase: each machine reads its own clock" `Quick
      test_rdtsc_reads_own_machine;
    Alcotest.test_case "timebase: rdtsc brackets a consume exactly" `Quick
      test_rdtsc_brackets_consume_exactly;
    Alcotest.test_case "timebase: rdtsc allocates 0 words" `Quick test_rdtsc_allocates_nothing;
    Alcotest.test_case "timebase: CNK FWQ sample <= 26 words" `Quick test_fwq_sample_words_cnk;
    Alcotest.test_case "timebase: FWK FWQ sample <= 75 words" `Quick test_fwq_sample_words_fwk;
  ]
  @ qcheck
