(* The experiment harness: regenerates every table and figure of the
   paper's evaluation, printing paper-reported values next to measured
   ones. Run all experiments:    dune exec bench/main.exe
   Run one:                      dune exec bench/main.exe -- fwq
   List:                         dune exec bench/main.exe -- list *)

open Bg_engine
open Bg_kabi
module Noise = Bg_noise
module Bringup = Bg_bringup

let section title = Printf.printf "\n===== %s =====\n%!" title

(* ------------------------------------------------------------------ *)
(* E1: Figs 5-7 -- FWQ on Linux vs CNK *)

let run_fwq () =
  section "E1 (Figs 5-7): FWQ noise, 12,000 samples of 658,958-cycle quanta";
  let cnk = Noise.Fwq_harness.run_on_cnk ~samples:12_000 () in
  let fwk = Noise.Fwq_harness.run_on_fwk ~samples:12_000 ~noise_seed:42L () in
  (* ASCII rendition of the figures' dot clouds: per-core sample density
     on a log scale over the cycle range *)
  let plot t =
    let h = Noise.Fwq_harness.histogram t ~bins:48 in
    let maxc = List.fold_left (fun a (_, c) -> max a c) 1 h in
    let line =
      String.concat ""
        (List.map
           (fun (_, c) ->
             if c = 0 then " "
             else begin
               let lvl =
                 int_of_float
                   (4.0 *. log (float_of_int (c + 1)) /. log (float_of_int (maxc + 1)))
               in
               [| "."; ":"; "+"; "#"; "@" |].(min 4 lvl)
             end)
           h)
    in
    Printf.printf "    [%s] %d..%d cycles\n" line t.Noise.Fwq_harness.min_cycles
      t.Noise.Fwq_harness.max_cycles
  in
  let print_report label paper r =
    Printf.printf "%s (paper: %s)\n" label paper;
    List.iter
      (fun t ->
        Printf.printf "  core %d: min %7d max %7d (+%6d)  spread %8.4f%%\n"
          t.Noise.Fwq_harness.thread t.Noise.Fwq_harness.min_cycles
          t.Noise.Fwq_harness.max_cycles
          (t.Noise.Fwq_harness.max_cycles - t.Noise.Fwq_harness.min_cycles)
          t.Noise.Fwq_harness.spread_percent;
        plot t)
      r.Noise.Fwq_harness.threads
  in
  print_report "Linux (FWK)"
    "+38,076 / +10,194 / +42,000 / +36,470 cycles; >5% on cores 0,2,3" fwk;
  print_report "CNK" "max variation < 0.006%" cnk;
  Printf.printf "contrast: FWK max spread %.3f%% vs CNK %.5f%%\n"
    (Noise.Fwq_harness.max_spread fwk)
    (Noise.Fwq_harness.max_spread cnk);
  (* Ferreira-style characterization recovered from the measurements *)
  Printf.printf "\ninferred noise signatures (core 0):\n";
  let sig_of r = Noise.Analysis.characterize (List.hd r.Noise.Fwq_harness.threads).Noise.Fwq_harness.samples in
  Format.printf "  FWK: %a" Noise.Analysis.pp (sig_of fwk);
  Format.printf "  CNK: %a" Noise.Analysis.pp (sig_of cnk)

(* ------------------------------------------------------------------ *)
(* E2: Table I -- messaging latencies *)

let run_latency () =
  section "E2 (Table I): one-way latency by protocol, SMP mode, nearest neighbors";
  let lat = Hashtbl.create 8 in
  let record name us = Hashtbl.replace lat name us in
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  for r = 0 to 1 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let image =
    Image.executable ~name:"latency" (fun () ->
        let r = Bg_rt.Libc.rank () in
        let ctx = Bg_msg.Dcmf.attach fabric ~rank:r in
        if r = 1 then Bg_msg.Dcmf.register ctx ~tag:1 ~bytes:64
        else begin
          let mpi = Bg_msg.Mpi.create ctx in
          let data = Bytes.make 8 'x' in
          Coro.consume 5_000;
          let handle_one name f =
            let t0 = Coro.rdtsc () in
            let h = f () in
            Bg_msg.Dcmf.wait h;
            record name (Cycles.to_us (Bg_msg.Dcmf.completion_cycle h - t0));
            Coro.consume 20_000
          in
          handle_one "DCMF Put" (fun () -> Bg_msg.Dcmf.put ctx ~dst:1 ~tag:1 ~data);
          handle_one "DCMF Get" (fun () -> Bg_msg.Dcmf.get ctx ~src:1 ~tag:1);
          handle_one "DCMF Eager One-way" (fun () ->
              Bg_msg.Dcmf.send_eager ctx ~dst:1 ~tag:9 ~data);
          (let t0 = Coro.rdtsc () in
           Bg_msg.Armci.blocking_put ctx ~dst:1 ~tag:1 ~data;
           record "ARMCI blocking Put" (Cycles.to_us (Coro.rdtsc () - t0)));
          Coro.consume 20_000;
          (let t0 = Coro.rdtsc () in
           ignore (Bg_msg.Armci.blocking_get ctx ~src:1 ~tag:1);
           record "ARMCI blocking Get" (Cycles.to_us (Coro.rdtsc () - t0)));
          Coro.consume 20_000;
          (let t0 = Coro.rdtsc () in
           Coro.consume Bg_msg.Msg_params.mpi_send_overhead;
           let h = Bg_msg.Dcmf.send_eager ctx ~dst:1 ~tag:11 ~data in
           Bg_msg.Dcmf.wait h;
           record "MPI Eager One-way"
             (Cycles.to_us
                (Bg_msg.Dcmf.completion_cycle h - t0 + Bg_msg.Msg_params.mpi_match_overhead)));
          Coro.consume 20_000;
          let t0 = Coro.rdtsc () in
          Bg_msg.Mpi.send_rendezvous mpi ~dst:1 ~tag:3 8;
          record "MPI Rendezvous One-way" (Cycles.to_us (Coro.rdtsc () - t0))
        end)
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"lat" image);
  let paper =
    [
      ("DCMF Eager One-way", 1.6);
      ("MPI Eager One-way", 2.4);
      ("MPI Rendezvous One-way", 5.6);
      ("DCMF Put", 0.9);
      ("DCMF Get", 1.6);
      ("ARMCI blocking Put", 2.0);
      ("ARMCI blocking Get", 3.3);
    ]
  in
  Printf.printf "%-24s %10s %10s\n" "Protocol" "paper(us)" "measured";
  List.iter
    (fun (name, p) ->
      match Hashtbl.find_opt lat name with
      | Some v -> Printf.printf "%-24s %10.1f %10.2f\n" name p v
      | None -> Printf.printf "%-24s %10.1f %10s\n" name p "-")
    paper;
  (* message rate: back-to-back non-blocking puts from one core *)
  let cluster2 = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster2;
  let fabric2 = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster2) in
  ignore (Bg_msg.Dcmf.attach fabric2 ~rank:0);
  ignore (Bg_msg.Dcmf.attach fabric2 ~rank:1);
  let rate = ref 0.0 in
  let image2 =
    Image.executable ~name:"rate" (fun () ->
        let ctx = Bg_msg.Dcmf.attach fabric2 ~rank:0 in
        let n = 2_000 in
        let t0 = Coro.rdtsc () in
        let last = ref None in
        for _ = 1 to n do
          last := Some (Bg_msg.Dcmf.put ctx ~dst:1 ~tag:1 ~data:(Bytes.make 8 'x'))
        done;
        (match !last with Some h -> Bg_msg.Dcmf.wait h | None -> ());
        rate := float_of_int n /. Cycles.to_seconds (Coro.rdtsc () - t0))
  in
  Cnk.Cluster.run_job cluster2 ~ranks:[ 0 ] (Job.create ~name:"rate" image2);
  Printf.printf "\nsmall-put message rate (one core, non-blocking): %.2f Mmsg/s\n"
    (!rate /. 1e6)

(* ------------------------------------------------------------------ *)
(* E3: Fig 8 -- rendezvous throughput, near-neighbor exchange *)

let aggregate_bw ~bytes ~contiguous =
  let cluster = Cnk.Cluster.create ~dims:(4, 4, 4) () in
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  let entry, collect = Bg_apps.Stencil.exchange_program ~fabric ~rank:0 ~bytes ~contiguous in
  List.iter
    (fun r -> ignore (Bg_msg.Dcmf.attach fabric ~rank:r))
    (0 :: Bg_apps.Stencil.neighbors_of (Cnk.Cluster.machine cluster) ~rank:0);
  Cnk.Cluster.run_job cluster ~ranks:[ 0 ]
    (Job.create ~name:"bw" (Image.executable ~name:"bw" entry));
  collect ()

let run_bandwidth () =
  section "E3 (Fig 8): rendezvous throughput, 6-neighbor exchange (aggregate MB/s)";
  Printf.printf "%10s %16s %16s\n" "bytes" "contiguous" "paged(4K)";
  List.iter
    (fun bytes ->
      let c = aggregate_bw ~bytes ~contiguous:true in
      let p = aggregate_bw ~bytes ~contiguous:false in
      Printf.printf "%10d %16.0f %16.0f\n" bytes c p)
    [ 512; 4096; 32_768; 262_144; 1_048_576; 4_194_304 ];
  Printf.printf
    "(shape target: rises with size, saturates near 6 x 425 MB/s with\n contiguous buffers; paged path capped by the bounce copy)\n"

(* ------------------------------------------------------------------ *)
(* E4: section V.D -- performance stability *)

let run_stability () =
  section "E4 (V.D): performance stability";
  let cluster = Cnk.Cluster.create ~dims:(2, 2, 2) () in
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  for r = 0 to 7 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let totals = ref [] in
  for _run = 1 to 36 do
    let coll = Bg_msg.Mpi.Coll.create fabric ~participants:8 in
    let entry, collect =
      Bg_apps.Linpack.program ~fabric ~coll ~panels:60 ~panel_cycles:200_000 ()
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"hpl" (Image.executable ~name:"hpl" entry));
    totals := float_of_int (collect ()) :: !totals
  done;
  let s = Stats.summarize (Array.of_list !totals) in
  Printf.printf
    "LINPACK proxy, 36 runs on 8 CNK nodes:\n  mean %.0f cycles, spread %.5f%%, stddev %.6f s\n  (paper: 36 runs, 2.11 s spread over 4h28m = 0.013%%, stddev < 1.14 s)\n"
    s.Stats.mean (Stats.spread_percent s)
    (Cycles.to_seconds (int_of_float s.Stats.stddev));
  (* the allreduce bench rides the user-space DMA path *)
  let fabric_dma =
    Bg_msg.Dcmf.make_fabric ~path:Bg_msg.Dcmf.Dma_user (Cnk.Cluster.machine cluster)
  in
  for r = 0 to 7 do
    ignore (Bg_msg.Dcmf.attach fabric_dma ~rank:r)
  done;
  let coll = Bg_msg.Mpi.Coll.create fabric_dma ~participants:8 in
  let entry, collect =
    Bg_apps.Allreduce_bench.program ~fabric:fabric_dma ~coll ~iterations:5_000 ()
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"ar" (Image.executable ~name:"ar" entry));
  let st = collect () in
  Printf.printf
    "mpiBench_Allreduce on CNK (8 nodes, 5,000 iterations, event-driven):\n  mean %.3f us, stddev %.6f us   (paper: 16 nodes, 1M iterations, stddev 0.0007 us)\n"
    (Stats.Online.mean st) (Stats.Online.stddev st);
  let cnk_std =
    Noise.Scaling.allreduce_stddev_us ~nodes:16 ~iterations:100_000 ~work_cycles:20_000
      ~profile:Noise.Scaling.Quiet ~seed:1L
  in
  let linux_std =
    (* the paper's Linux test ran on I/O nodes with NFS in the background *)
    Noise.Scaling.allreduce_stddev_us ~nodes:4 ~iterations:100_000 ~work_cycles:20_000
      ~profile:Noise.Scaling.Linux_io_node ~seed:1L
  in
  Printf.printf
    "analytic long-run allreduce stddev: CNK 16 nodes %.4f us vs Linux 4 nodes %.2f us\n  (paper: ~0 vs 8.9 us)\n"
    cnk_std linux_std

(* ------------------------------------------------------------------ *)
(* E5: Tables II and III *)

let run_capability () =
  section "E5 (Tables II & III): capability ease matrix";
  Format.printf "Table II - ease of USING a capability:@.%a@." Bg_caps.Matrix.pp_table2 ();
  Format.printf "Table III - ease of IMPLEMENTING the missing ones:@.%a"
    Bg_caps.Matrix.pp_table3 ()

(* ------------------------------------------------------------------ *)
(* E6: section III -- reproducibility and bringup *)

let run_bringup () =
  section "E6 (III): cycle reproducibility, scans, multichip, VHDL boot";
  let run ?(seed = 1L) () =
    let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) ~seed () in
    Cnk.Cluster.boot_all cluster;
    let image =
      Image.executable ~name:"target" (fun () ->
          for _ = 1 to 100 do
            Coro.consume 3_000;
            ignore (Bg_rt.Libc.gettid ())
          done)
    in
    Cnk.Cluster.launch_all cluster ~ranks:[ 0 ] (Job.create ~name:"t" image);
    cluster
  in
  Printf.printf "scan@200000 reproducible across runs: %b\n"
    (Bringup.Waveform.reproducible ~run:(run ~seed:1L) ~rank:0 ~cycle:200_000);
  let a = Bringup.Multichip.aligned_packet_cycle ~seed:2L ~src:0 ~dst:1 ~work_before_send:25_000 () in
  let b = Bringup.Multichip.aligned_packet_cycle ~seed:2L ~src:0 ~dst:1 ~work_before_send:25_000 () in
  Printf.printf "multichip packet alignment across coordinated reboots: %d vs %d (%s)\n" a b
    (if a = b then "aligned" else "MISALIGNED");
  let bug = Bringup.Timing_bug.default_bug in
  let findings = Bringup.Timing_bug.hunt bug ~ranks:4 ~samples:8 ~runs_per_rank:4 ~seed:77L in
  List.iter
    (fun f ->
      Printf.printf
        "timing-bug hunt: chip %d diverges from its golden waveform at cycle %d\n"
        f.Bringup.Timing_bug.rank f.Bringup.Timing_bug.diverged_at)
    findings;
  if findings = [] then Printf.printf "timing-bug hunt: no divergence found\n";
  Format.printf "%a" Bringup.Vhdl_sim.pp (Bringup.Vhdl_sim.comparison ());
  Format.printf "  (paper: CNK boots in a couple of hours; stripped Linux days; full weeks)@."

(* ------------------------------------------------------------------ *)
(* E7: Fig 3 -- static memory layout *)

let run_mapping () =
  section "E7 (Fig 3): CNK static memory partitioning";
  List.iter
    (fun (label, nprocs) ->
      Printf.printf "--- %s mode ---\n" label;
      match Cnk.Mapping.compute { Cnk.Mapping.default_config with Cnk.Mapping.nprocs } with
      | Ok t -> Format.printf "%a" Cnk.Mapping.pp t
      | Error e -> Printf.printf "error: %s\n" e)
    [ ("SMP", 1); ("DUAL", 2); ("VN", 4) ]

(* ------------------------------------------------------------------ *)
(* E8: Fig 4 -- guard pages *)

let run_guard () =
  section "E8 (Fig 4): DAC guard pages";
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let smash =
    Image.executable ~name:"smash" (fun () ->
        let brk = Bg_rt.Libc.brk_now () in
        Coro.store ~addr:(brk + 64) (Bytes.of_string "overflow"))
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"smash" smash);
  (match Cnk.Node.faults (Cnk.Cluster.node cluster 0) with
  | [ (tid, reason) ] -> Printf.printf "store into guard range: tid %d killed (%s)\n" tid reason
  | _ -> Printf.printf "unexpected fault set\n");
  let cluster2 = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster2;
  let grow =
    Image.executable ~name:"grow" (fun () ->
        let before = Bg_rt.Libc.brk_now () in
        let w =
          Bg_rt.Pthread.create (fun () ->
              ignore (Bg_rt.Libc.sbrk (8 * 1024 * 1024));
              Coro.consume 5_000)
        in
        Bg_rt.Pthread.join w;
        Coro.store ~addr:(before + 64) (Bytes.of_string "now-legal");
        Coro.consume 100)
  in
  Cnk.Cluster.run_job cluster2 (Job.create ~name:"grow" grow);
  Printf.printf
    "heap extended by a worker on another core: %d IPI(s) repositioned the guard; main thread's store proceeded (%d faults)\n"
    (Cnk.Node.ipi_count (Cnk.Cluster.node cluster2 0))
    (List.length (Cnk.Node.faults (Cnk.Cluster.node cluster2 0)))

(* ------------------------------------------------------------------ *)
(* A1: noise scaling ablation *)

let run_noise_scaling () =
  section "A1 (ablation): noise magnification with scale (Petrini effect)";
  Printf.printf "%8s %14s %14s %14s %14s\n" "nodes" "CNK(quiet)" "Linux daemons"
    "synchronized" "injected 2.5%";
  let injected =
    Noise.Scaling.Injected
      { Noise.Injection.period_cycles = 850_000; duration_cycles = 21_250; jitter = 0.5 }
  in
  List.iter
    (fun nodes ->
      let f profile =
        Noise.Scaling.allreduce_slowdown ~nodes ~iterations:300 ~work_cycles:850_000
          ~profile ~seed:11L
      in
      Printf.printf "%8d %14.4f %14.4f %14.4f %14.4f\n" nodes (f Noise.Scaling.Quiet)
        (f Noise.Scaling.Linux_daemons)
        (f Noise.Scaling.Linux_synchronized)
        (f injected))
    [ 1; 16; 256; 4096; 65_536 ];
  Printf.printf
    "(the paper's SSV.A framing: coordinating delays bounds the compounding;\n\
    \ eliminating them, as CNK does, removes it)\n"

(* ------------------------------------------------------------------ *)
(* A2: TLB / paging ablation *)

let run_tlb () =
  section "A2 (ablation): static large pages vs 4K demand paging";
  let pages = [ 32; 128; 512; 2048 ] in
  Printf.printf "%12s %22s %26s\n" "touched 4K" "CNK cycles (no misses)" "FWK cycles (faults+TLB)";
  List.iter
    (fun npages ->
      let measure_cnk () =
        let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
        Cnk.Cluster.boot_all cluster;
        let out = ref 0 in
        let image =
          Image.executable ~name:"touch" (fun () ->
              let a = Bg_rt.Malloc.malloc (npages * 4096) in
              let t0 = Coro.rdtsc () in
              for i = 0 to npages - 1 do
                Coro.consume 50;
                Bg_rt.Libc.poke (a + (i * 4096)) i
              done;
              out := Coro.rdtsc () - t0)
        in
        Cnk.Cluster.run_job cluster (Job.create ~name:"t" image);
        !out
      in
      let measure_fwk () =
        let machine = Machine.create ~dims:(1, 1, 1) () in
        let node =
          Bg_fwk.Node.create ~noise_seed:1L ~daemons:Bg_fwk.Noise_model.quiet_daemon_set
            machine ~rank:0 ~stripped:true ()
        in
        let out = ref 0 in
        Bg_fwk.Node.boot node ~on_ready:(fun () ->
            ignore
              (Bg_fwk.Node.launch node
                 (Job.create ~name:"t"
                    (Image.executable ~name:"t" (fun () ->
                         let a = Bg_rt.Malloc.malloc (npages * 4096) in
                         let t0 = Coro.rdtsc () in
                         for i = 0 to npages - 1 do
                           Coro.consume 50;
                           Bg_rt.Libc.poke (a + (i * 4096)) i
                         done;
                         out := Coro.rdtsc () - t0)))));
        ignore (Sim.run machine.Machine.sim);
        !out
      in
      Printf.printf "%12d %22d %26d\n" npages (measure_cnk ()) (measure_fwk ()))
    pages;
  Printf.printf "(CNK: static 16M-1G pages, zero translation cost at run time)\n"

(* ------------------------------------------------------------------ *)
(* A3: scheduler ablation *)

let run_sched () =
  section "A3 (ablation): non-preemptive fixed affinity vs preemptive time-slicing";
  let cnk = Noise.Fwq_harness.run_on_cnk ~samples:3_000 () in
  let fwk_quiet =
    Noise.Fwq_harness.run_on_fwk ~samples:3_000 ~noise_seed:5L
      ~daemons:Bg_fwk.Noise_model.quiet_daemon_set ()
  in
  let fwk_full = Noise.Fwq_harness.run_on_fwk ~samples:3_000 ~noise_seed:5L () in
  Printf.printf "FWQ max spread: CNK %.5f%% | FWK ticks-only %.3f%% | FWK full daemons %.3f%%\n"
    (Noise.Fwq_harness.max_spread cnk)
    (Noise.Fwq_harness.max_spread fwk_quiet)
    (Noise.Fwq_harness.max_spread fwk_full)


(* ------------------------------------------------------------------ *)
(* SSVIII: extended thread affinity *)

let run_affinity () =
  section "SSVIII: extended thread affinity (one process borrowing idle cores)";
  let flag_addr = Cnk.Mapping.shared_va in
  let phase ~designate =
    let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
    Cnk.Cluster.boot_all cluster;
    let node = Cnk.Cluster.node cluster 0 in
    let created = ref 0 and cycles = ref 0 in
    let image =
      Image.executable ~name:"omp-phase" (fun () ->
          if Bg_rt.Libc.getpid () = 1 then begin
            let t0 = Coro.rdtsc () in
            let hs = ref [] in
            for _ = 1 to 3 do
              match Bg_rt.Pthread.create (fun () -> Coro.consume 400_000) with
              | h -> incr created; hs := h :: !hs
              | exception Sysreq.Syscall_error Errno.EAGAIN -> ()
            done;
            Coro.consume 400_000;
            List.iter Bg_rt.Pthread.join !hs;
            cycles := Coro.rdtsc () - t0;
            Bg_rt.Libc.poke flag_addr 1
          end
          else begin
            let rec idle () =
              if Bg_rt.Libc.peek flag_addr = 0 then begin
                ignore (Coro.syscall Sysreq.Sched_yield);
                Coro.consume 1_000;
                idle ()
              end
            in
            idle ()
          end)
    in
    (match
       Cnk.Node.launch node (Job.create ~mode:Job.Vn ~threads_per_core:1 ~name:"p" image)
     with
    | Ok () -> ()
    | Error e -> failwith e);
    if designate then
      List.iter
        (fun core ->
          match Cnk.Node.designate_remote node ~core ~pid:1 with
          | Ok () -> ()
          | Error e -> failwith e)
        [ 1; 2; 3 ];
    Cnk.Cluster.run_until_quiet cluster;
    (!created, !cycles)
  in
  let c0, t0 = phase ~designate:false in
  let c1, t1 = phase ~designate:true in
  Printf.printf
    "without designation: %d extra threads placed (EAGAIN), OpenMP phase work 400k in %d cycles\n"
    c0 t0;
  Printf.printf
    "with remote cores:   %d extra threads placed, 1.6M cycles of work in %d cycles (%.2fx throughput)\n"
    c1 t1
    (4.0 *. float_of_int t0 /. float_of_int t1)

(* ------------------------------------------------------------------ *)
(* SSIII: cache-bank mapping exploration *)

let run_cache () =
  section "SSIII: L2 bank-mapping exploration (design-time experiments)";
  let results =
    Bringup.Cache_explore.sweep
      ~mappings:[ Bg_hw.Cache.Modulo_line; Bg_hw.Cache.Xor_fold; Bg_hw.Cache.Fixed 0 ]
      ()
  in
  Format.printf "%a" Bringup.Cache_explore.pp results;
  Printf.printf "(a pathological 1 KiB stride; fixed-bank is the artificial-conflict config)\n"

(* ------------------------------------------------------------------ *)
(* SSV.B: L1 parity recovery (the Gordon Bell mechanism) *)

let run_l1_parity () =
  section "SSV.B: L1 parity error signaled to the application";
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let node = Cnk.Cluster.node cluster 0 in
  let recovered = ref 0 in
  let image =
    Image.executable ~name:"gb" (fun () ->
        Sysreq.expect_unit
          (Coro.syscall
             (Sysreq.Sigaction { signo = 7; handler = Some (fun _ -> incr recovered) }));
        for _ = 1 to 30 do
          Coro.consume 100_000
        done)
  in
  (match Cnk.Node.launch node (Job.create ~name:"gb" image) with
  | Ok () -> ()
  | Error e -> failwith e);
  List.iter
    (fun at ->
      ignore
        (Sim.schedule_at (Cnk.Cluster.sim cluster) at (fun () ->
             ignore (Cnk.Node.inject_l1_parity_error node ~core:0))))
    [ 2_600_000; 3_400_000; 4_200_000 ];
  Cnk.Cluster.run_until_quiet cluster;
  Printf.printf
    "3 parity errors injected; %d recovered in place; %d fatal faults (paper: recovery \
     without heavy checkpoint/restart cycles)\n"
    !recovered
    (List.length (Cnk.Node.faults node))

(* ------------------------------------------------------------------ *)
(* FTQ companion benchmark *)

let run_ftq () =
  section "FTQ: work per fixed 1ms window (companion of FWQ)";
  let on_cnk inject =
    let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
    Cnk.Cluster.boot_all cluster;
    if inject then
      Noise.Injection.attach (Cnk.Cluster.node cluster 0)
        ~profile:
          { Noise.Injection.period_cycles = 3_000_000; duration_cycles = 150_000; jitter = 0.4 }
        ~seed:4L
        ~until:(Sim.now (Cnk.Cluster.sim cluster) + 2_000_000_000);
    let entry, collect = Bg_apps.Ftq.program ~windows:300 () in
    Cnk.Cluster.run_job cluster (Job.create ~name:"ftq" (Image.executable ~name:"ftq" entry));
    collect ()
  in
  let quiet = on_cnk false in
  let noisy = on_cnk true in
  Printf.printf "CNK quiet:    %d..%d units/window (spread %.2f%%)\n"
    (Bg_apps.Ftq.min_count quiet) (Bg_apps.Ftq.max_count quiet)
    (Bg_apps.Ftq.spread_percent quiet);
  Printf.printf "CNK injected: %d..%d units/window (spread %.2f%%)\n"
    (Bg_apps.Ftq.min_count noisy) (Bg_apps.Ftq.max_count noisy)
    (Bg_apps.Ftq.spread_percent noisy)

(* ------------------------------------------------------------------ *)
(* SSVII.A: I/O aggregation -- filesystem clients vs offload latency *)

let run_io_offload () =
  section "SSVII.A: function-ship aggregation (fs clients reduced, latency cost)";
  Printf.printf "%14s %12s %22s\n" "CN per IO node" "fs clients" "mean write latency (us)";
  List.iter
    (fun per_ion ->
      let cluster = Cnk.Cluster.create ~dims:(4, 4, 1) ~nodes_per_io_node:per_ion () in
      Cnk.Cluster.boot_all cluster;
      let lat = Stats.Online.create () in
      let image =
        Image.executable ~name:"w" (fun () ->
            let fd =
              Bg_rt.Libc.openf
                ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true }
                (Printf.sprintf "f%d" (Bg_rt.Libc.rank ()))
            in
            for _ = 1 to 5 do
              let t0 = Coro.rdtsc () in
              ignore (Bg_rt.Libc.write fd (Bytes.make 4096 'x'));
              Stats.Online.add lat (Cycles.to_us (Coro.rdtsc () - t0))
            done;
            Bg_rt.Libc.close fd)
      in
      Cnk.Cluster.run_job cluster (Job.create ~name:"w" image);
      let io_nodes = (16 + per_ion - 1) / per_ion in
      Printf.printf "%14d %12d %22.2f\n" per_ion io_nodes (Stats.Online.mean lat))
    [ 1; 4; 16 ];
  Printf.printf
    "(16 compute nodes; aggregation trades a little latency for far fewer fs clients)\n";
  (* IOR-style aggregate write throughput vs participating ranks *)
  Printf.printf "\nIOR-style aggregate write bandwidth (64 KiB blocks, 1 I/O node):\n";
  Printf.printf "%8s %18s\n" "ranks" "aggregate MB/s";
  List.iter
    (fun ranks ->
      let cluster = Cnk.Cluster.create ~dims:(16, 1, 1) () in
      Cnk.Cluster.boot_all cluster;
      let entry, collect =
        Bg_apps.Ior_proxy.program ~bytes_per_rank:(1 lsl 20) ~block_bytes:(64 * 1024) ()
      in
      Cnk.Cluster.run_job cluster
        ~ranks:(List.init ranks Fun.id)
        (Job.create ~name:"ior" (Image.executable ~name:"ior" entry));
      let r = collect ~collect_from:(Cnk.Cluster.machine cluster) () in
      Printf.printf "%8d %18.0f\n" ranks r.Bg_apps.Ior_proxy.aggregate_mbps)
    [ 1; 2; 4; 8; 16 ];
  Printf.printf "(saturates at the collective-network uplink: ~850 MB/s per I/O node)\n"


(* ------------------------------------------------------------------ *)
(* SSV.B ablation: parity recovery vs checkpoint/restart *)

let run_recovery () =
  section "SSV.B (ablation): in-place parity recovery vs checkpoint/restart";
  (* a 40-block computation over 4 MB of state; one transient fault *)
  let blocks = 40 and block_cycles = 200_000 and state_bytes = 4 * 1024 * 1024 in
  let run_strategy strategy =
    let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
    Cnk.Cluster.boot_all cluster;
    let node = Cnk.Cluster.node cluster 0 in
    let wall = ref 0 and io_bytes = ref 0 in
    let image =
      Image.executable ~name:"rec" (fun () ->
          let state = Bg_rt.Malloc.malloc state_bytes in
          let regions = [ (state, state_bytes) ] in
          let faulted = Bg_rt.Malloc.malloc 8 in
          Bg_rt.Libc.poke faulted 0;
          Sysreq.expect_unit
            (Coro.syscall
               (Sysreq.Sigaction { signo = 7; handler = Some (fun _ -> ()) }));
          let t0 = Coro.rdtsc () in
          (match strategy with
          | `Parity_recovery ->
            (* handler marks the block; redo just that block *)
            let b = ref 0 in
            while !b < blocks do
              Coro.consume block_cycles;
              if !b = 24 && Bg_rt.Libc.peek faulted = 0 then begin
                (* fault detected mid-block: recompute it *)
                Bg_rt.Libc.poke faulted 1;
                Coro.consume block_cycles
              end;
              incr b
            done
          | `Checkpoint k ->
            (* checkpoint every k blocks; fault at block 24 forces restore
               and recompute from the last checkpoint *)
            let b = ref 0 in
            while !b < blocks do
              if !b mod k = 0 then io_bytes := !io_bytes + Bg_apps.Checkpoint.save ~name:"st" ~regions;
              Coro.consume block_cycles;
              if !b = 24 && Bg_rt.Libc.peek faulted = 0 then begin
                Bg_rt.Libc.poke faulted 1;
                ignore (Bg_apps.Checkpoint.restore ~name:"st" ~regions);
                b := !b / k * k - 1 (* resume from the checkpointed block *)
              end;
              incr b
            done);
          wall := Coro.rdtsc () - t0)
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"rec" image);
    assert (Cnk.Node.faults node = []);
    (!wall, !io_bytes)
  in
  let ideal = blocks * 200_000 in
  let p_wall, _ = run_strategy `Parity_recovery in
  let c_wall, c_io = run_strategy (`Checkpoint 8) in
  Printf.printf "fault-free compute:          %9d cycles\n" ideal;
  Printf.printf "parity recovery (SSV.B):     %9d cycles (+%.1f%%), 0 checkpoint bytes\n"
    p_wall
    (100.0 *. float_of_int (p_wall - ideal) /. float_of_int ideal);
  Printf.printf
    "checkpoint/restart (k=8):    %9d cycles (+%.1f%%), %d MB shipped to the I/O node\n"
    c_wall
    (100.0 *. float_of_int (c_wall - ideal) /. float_of_int ideal)
    (c_io / 1024 / 1024);
  Printf.printf "(the paper: signaling the app avoids heavy I/O-bound checkpoint/restart)\n"


(* ------------------------------------------------------------------ *)
(* collectives: tree vs torus allreduce crossover *)

let run_collectives () =
  section "collectives: double allreduce routing, tree vs torus (8 nodes)";
  let cluster = Cnk.Cluster.create ~dims:(2, 2, 2) () in
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
  for r = 0 to 7 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let coll = Bg_msg.Mpi.Coll.create fabric ~participants:8 in
  Printf.printf "%12s %14s %14s %10s\n" "elements" "tree (us)" "torus (us)" "winner";
  List.iter
    (fun elements ->
      let tree =
        Cycles.to_us (Bg_msg.Mpi.Coll.estimate_vector_cycles coll Bg_msg.Mpi.Coll.Tree ~elements)
      in
      let torus =
        Cycles.to_us (Bg_msg.Mpi.Coll.estimate_vector_cycles coll Bg_msg.Mpi.Coll.Torus ~elements)
      in
      Printf.printf "%12d %14.1f %14.1f %10s\n" elements tree torus
        (if tree <= torus then "tree" else "torus"))
    [ 1; 64; 1024; 16_384; 262_144; 4_194_304 ];
  Printf.printf
    "(the classic BG/P split: latency-bound reductions ride the collective\n\
    \ network; bandwidth-bound doubles move to the torus)\n";
  Printf.printf "\nalltoall (FFT transpose) on the torus, bisection-limited:\n";
  List.iter
    (fun bytes ->
      Printf.printf "  %8d B/pair: %10.1f us\n" bytes
        (Cycles.to_us (Bg_msg.Mpi.Coll.alltoall_cycles coll ~bytes_per_pair:bytes)))
    [ 1024; 65_536; 1_048_576 ]


(* ------------------------------------------------------------------ *)
(* halo exchange weak scaling, quiet vs noisy kernel *)

let run_halo () =
  section "halo exchange: weak scaling on CNK, quiet vs injected noise";
  let run ~ranks ~inject =
    let cluster = Cnk.Cluster.create ~dims:(ranks, 1, 1) () in
    Cnk.Cluster.boot_all cluster;
    if inject then
      Array.iter
        (fun node ->
          Noise.Injection.attach node
            ~profile:
              { Noise.Injection.period_cycles = 850_000; duration_cycles = 25_500; jitter = 0.5 }
            ~seed:(Int64.of_int (Cnk.Node.rank node + 1))
            ~until:(Sim.now (Cnk.Cluster.sim cluster) + 4_000_000_000))
        (Cnk.Cluster.nodes cluster);
    (* the halo exchange now rides the descriptor-based user-space DMA
       path, as DCMF does on real CNK *)
    let fabric =
      Bg_msg.Dcmf.make_fabric ~path:Bg_msg.Dcmf.Dma_user
        (Cnk.Cluster.machine cluster)
    in
    for r = 0 to ranks - 1 do
      ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
    done;
    let entry, collect =
      Bg_apps.Halo.program ~fabric ~cells_per_rank:64 ~iterations:40
        ~compute_cycles_per_cell:2_000 ()
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"halo" (Image.executable ~name:"halo" entry));
    let r = collect () in
    (r.Bg_apps.Halo.wall_cycles, r.Bg_apps.Halo.descriptors)
  in
  let base, _ = run ~ranks:1 ~inject:false in
  Printf.printf "%6s %16s %12s %18s %12s %8s\n" "ranks" "quiet cycles" "efficiency"
    "3pc-noise cycles" "efficiency" "descs";
  List.iter
    (fun ranks ->
      let quiet, descs = run ~ranks ~inject:false in
      let noisy, _ = run ~ranks ~inject:true in
      Printf.printf "%6d %16d %11.1f%% %18d %11.1f%% %8d\n" ranks quiet
        (100.0 *. float_of_int base /. float_of_int quiet)
        noisy
        (100.0 *. float_of_int base /. float_of_int noisy)
        descs)
    [ 1; 2; 4; 8 ];
  Printf.printf
    "(weak scaling: constant work per rank; every iteration synchronizes with\n\
    \ both neighbors, so per-node noise compounds with scale)\n"


(* ------------------------------------------------------------------ *)
(* CG solver: the NEK/QBOX-style workload, convergence + noise cost *)

let run_cg () =
  section "cg solver: distributed conjugate gradient (halo + 2 allreduces/iter)";
  let run ~inject =
    let ranks = 8 in
    let cluster = Cnk.Cluster.create ~dims:(ranks, 1, 1) () in
    Cnk.Cluster.boot_all cluster;
    if inject then
      Array.iter
        (fun node ->
          Noise.Injection.attach node
            ~profile:
              { Noise.Injection.period_cycles = 850_000; duration_cycles = 25_500; jitter = 0.5 }
            ~seed:(Int64.of_int (Cnk.Node.rank node + 1))
            ~until:(Sim.now (Cnk.Cluster.sim cluster) + 8_000_000_000))
        (Cnk.Cluster.nodes cluster);
    let fabric = Bg_msg.Dcmf.make_fabric (Cnk.Cluster.machine cluster) in
    for r = 0 to ranks - 1 do
      ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
    done;
    let coll = Bg_msg.Mpi.Coll.create fabric ~participants:ranks in
    let entry, collect =
      Bg_apps.Cg_solver.program ~fabric ~coll ~cells_per_rank:32 ~iterations:40 ()
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"cg" (Image.executable ~name:"cg" entry));
    collect ()
  in
  let quiet = run ~inject:false in
  let noisy = run ~inject:true in
  Printf.printf "8 ranks x 32 cells, 40 iterations:\n";
  Printf.printf "  residual %.3e -> %.3e (must match the dense reference)\n"
    quiet.Bg_apps.Cg_solver.initial_residual quiet.Bg_apps.Cg_solver.final_residual;
  Printf.printf "  quiet CNK:      %9d cycles\n" quiet.Bg_apps.Cg_solver.wall_cycles;
  Printf.printf "  with 3%% noise:  %9d cycles (+%.1f%%)\n"
    noisy.Bg_apps.Cg_solver.wall_cycles
    (100.0
    *. float_of_int
         (noisy.Bg_apps.Cg_solver.wall_cycles - quiet.Bg_apps.Cg_solver.wall_cycles)
    /. float_of_int quiet.Bg_apps.Cg_solver.wall_cycles);
  Printf.printf
    "(two allreduces per iteration: every straggler delay lands on the critical path)\n"


(* ------------------------------------------------------------------ *)
(* torus congestion: nearest-neighbor vs random-permutation traffic *)

let run_congestion () =
  section "torus congestion: aggregate bandwidth by traffic pattern (64 nodes)";
  let bytes = 1 lsl 20 in
  let measure pattern_name pairs =
    let cluster = Cnk.Cluster.create ~dims:(4, 4, 4) ~seed:3L () in
    Cnk.Cluster.boot_all cluster;
    let machine = Cnk.Cluster.machine cluster in
    let sim = Cnk.Cluster.sim cluster in
    let t0 = ref max_int and t1 = ref 0 and outstanding = ref (List.length pairs) in
    let finished = ref false in
    ignore
      (Sim.schedule_in sim 1 (fun () ->
           t0 := Sim.now sim;
           List.iter
             (fun (src, dst) ->
               Bg_hw.Torus.transfer machine.Machine.torus ~src ~dst ~bytes
                 ~on_arrival:(fun ~arrival_cycle ->
                   t1 := max !t1 arrival_cycle;
                   decr outstanding;
                   if !outstanding = 0 then finished := true)
                 ())
             pairs));
    ignore (Sim.run sim);
    assert !finished;
    let total = List.length pairs * bytes in
    let mbps = float_of_int total /. Cycles.to_seconds (!t1 - !t0) /. 1e6 in
    Printf.printf "  %-22s %8.0f MB/s aggregate (%d flows)\n" pattern_name mbps
      (List.length pairs)
  in
  let n = 64 in
  let neighbor_pairs =
    List.init n (fun r ->
        let machine = Machine.create ~dims:(4, 4, 4) () in
        (r, List.hd (Bg_apps.Stencil.neighbors_of machine ~rank:r)))
  in
  let shift_pairs = List.init n (fun r -> (r, (r + (n / 2)) mod n)) in
  let rng = Rng.create 99L in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  let random_pairs =
    Array.to_list (Array.mapi (fun i p -> (i, p)) perm)
    |> List.filter (fun (a, b) -> a <> b)
  in
  measure "nearest neighbor" neighbor_pairs;
  measure "random permutation" random_pairs;
  measure "bisection shift (n/2)" shift_pairs;
  Printf.printf
    "(neighbor traffic uses every link once; long-haul patterns pile onto\n\
    \ shared links and lose to contention -- why BG codes map to the torus)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator itself *)

let run_micro () =
  section "micro: simulator wall-clock throughput (Bechamel)";
  let open Bechamel in
  let test_queue =
    Test.make ~name:"event_queue add+pop x100"
      (Staged.stage (fun () ->
           let q = Event_queue.create () in
           for i = 1 to 100 do
             ignore (Event_queue.add q ~time:(i * 7 mod 50) i)
           done;
           while Event_queue.pop q <> None do
             ()
           done))
  in
  let test_sim_run =
    (* 64 chains, each thunk rescheduling itself, so the queue holds 64
       live events until 10k have fired *)
    Test.make ~name:"Sim.run 10k events at depth 64"
      (Staged.stage (fun () ->
           let sim = Sim.create () in
           let left = ref 10_000 in
           let rec tick () =
             decr left;
             if !left >= 64 then ignore (Sim.schedule_in sim (1 + (!left * 7919 mod 97)) tick)
           in
           for i = 1 to 64 do
             ignore (Sim.schedule_at sim i tick)
           done;
           ignore (Sim.run sim)))
  in
  let test_fnv =
    Test.make ~name:"Fnv.add_string 16 B label"
      (Staged.stage
         (let label = "cio.pwrite.reply" in
          fun () -> ignore (Sys.opaque_identity (Fnv.add_string Fnv.empty label))))
  in
  let test_label_fold =
    (* the same 16 bytes as a declared label: one table lookup *)
    Test.make ~name:"Fnv.add_label 16 B declared label"
      (Staged.stage
         (let label = Fnv.Label.declare ~cat:"cio." ~name:"pwrite.reply" in
          fun () -> ignore (Sys.opaque_identity (Fnv.add_label Fnv.empty label))))
  in
  let test_causal =
    (* one run builds a 50k-node graph from empty: 50k mints, each also
       chained to its scope's previous node, plus 50k links *)
    Test.make ~name:"Causal.mint+link at 50k nodes"
      (Staged.stage
         (let g = Bg_obs.Causal.create ~enabled:true () in
          let entry = Bg_obs.Obs.label ~cat:"syscall" ~name:"pwrite.entry" in
          fun () ->
            Bg_obs.Causal.reset g;
            let prev = ref Bg_obs.Causal.none in
            for i = 0 to 49_999 do
              let id =
                Bg_obs.Causal.mint_l g ~chain:true entry ~rank:(i land 31) ~core:(i land 3)
                  ~now:i
              in
              Bg_obs.Causal.link g Bg_obs.Causal.Request_reply ~src:!prev ~dst:id;
              prev := id
            done))
  in
  let test_obs_spans =
    (* one run records a span in each of 256 scopes; 8-slot rings, so in
       steady state every record overwrites its scope's oldest span *)
    Test.make ~name:"Obs.span_record over 256 scopes"
      (Staged.stage
         (let o = Bg_obs.Obs.create ~ring_capacity:8 ~enabled:true () in
          let service = Bg_obs.Obs.label ~cat:"cio" ~name:"service.pwrite" in
          let t = ref 0 in
          fun () ->
            for s = 0 to 255 do
              Bg_obs.Obs.span_record_l o service ~rank:(s lsr 2) ~core:(s land 3) ~start:!t
                ~finish:(!t + 5)
            done;
            t := !t + 10))
  in
  let test_memory =
    Test.make ~name:"memory write+read 4K"
      (Staged.stage
         (let m = Bg_hw.Memory.create ~size:(1 lsl 20) in
          let b = Bytes.make 4096 'x' in
          fun () ->
            Bg_hw.Memory.write m ~addr:8192 b;
            ignore (Bg_hw.Memory.read m ~addr:8192 ~len:4096)))
  in
  let test_proto =
    Test.make ~name:"proto encode+decode write(1K)"
      (Staged.stage
         (let hdr = { Bg_cio.Proto.rank = 3; pid = 1; tid = 9 } in
          let req = Sysreq.Write { fd = 4; data = Bytes.make 1024 'd' } in
          fun () ->
            let b = Bg_cio.Proto.encode_request hdr req in
            ignore (Bg_cio.Proto.decode_request b)))
  in
  let test_fwq_sim =
    Test.make ~name:"full CNK job (100 quanta)"
      (Staged.stage (fun () ->
           let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
           Cnk.Cluster.boot_all cluster;
           let entry, _ = Bg_apps.Fwq.program ~samples:25 ~threads:4 () in
           Cnk.Cluster.run_job cluster
             (Job.create ~name:"f" (Image.executable ~name:"f" entry))))
  in
  let tests =
    Test.make_grouped ~name:"sim"
      [
        test_queue; test_sim_run; test_fnv; test_label_fold; test_causal; test_obs_spans;
        test_memory; test_proto; test_fwq_sim;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-40s %12.0f ns/run\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Table I over the DMA engine: CNK user-space vs FWK kernel-mediated *)

let run_msg () =
  section "messaging: DMA engine, user-space (CNK) vs kernel-mediated (FWK)";
  let results = Bg_msgbench.Msgbench.run_all () in
  Bg_msgbench.Msgbench.pp_table Format.std_formatter results;
  Format.pp_print_flush Format.std_formatter ();
  let oc = open_out "BENCH_msg.json" in
  output_string oc (Bg_msgbench.Msgbench.to_json results);
  close_out oc;
  Printf.printf "wrote BENCH_msg.json (digest %s)\n"
    (Bg_msgbench.Msgbench.digest results)

(* ------------------------------------------------------------------ *)
(* Observability overhead: the zero-cost-by-default claim, measured *)

let run_obs () =
  section "obs: collection overhead (off / spans / spans+causal)";
  (* One seeded syscall-heavy CNK job per cell (every pwrite is a
     function-shipped span plus causal nodes and edges). The collectors
     are passive, so all three cells process the identical architectural
     event stream — the trace-record count is the (deterministic) work
     measure and wall time is the only thing that moves. *)
  let cell ~name ~spans ~causal =
    let t0 = Unix.gettimeofday () in
    let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:1L () in
    let machine = Cnk.Cluster.machine cluster in
    Bg_obs.Obs.set_enabled machine.Machine.obs spans;
    Bg_obs.Causal.set_enabled (Machine.causal machine) causal;
    Cnk.Cluster.boot_all cluster;
    let entry () =
      let fd = Bg_rt.Libc.openf ~flags:Sysreq.o_create_trunc "/bench_obs.dat" in
      let block = Bytes.make 64 'b' in
      for i = 0 to 1_999 do
        ignore (Bg_rt.Libc.pwrite fd block ~offset:(i * 64))
      done;
      Bg_rt.Libc.close fd
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"iobench" (Image.executable ~name:"iobench" entry));
    let wall = Unix.gettimeofday () -. t0 in
    let events = Bg_engine.Trace.count (Bg_engine.Sim.trace (Cnk.Cluster.sim cluster)) in
    let spans_n = Bg_obs.Obs.span_count machine.Machine.obs in
    let causal_n = Bg_obs.Causal.node_count (Machine.causal machine) in
    let eps = float_of_int events /. wall in
    Printf.printf "  %-14s %8d events  %6.3f s  %12.0f events/s  (%d spans, %d causal nodes)\n%!"
      name events wall eps spans_n causal_n;
    (name, events, wall, eps, spans_n, causal_n)
  in
  (* List elements evaluate right to left, so name each cell in turn:
     "off" must not inherit a heap the other cells warmed. A discarded
     cell first warms the code paths for all three. *)
  ignore (cell ~name:"(warm-up)" ~spans:true ~causal:true);
  let off = cell ~name:"off" ~spans:false ~causal:false in
  let spans = cell ~name:"spans" ~spans:true ~causal:false in
  let both = cell ~name:"spans+causal" ~spans:true ~causal:true in
  let cells = [ off; spans; both ] in
  (* the collection cost as a multiple of the collectors-off wall time *)
  let ratio (_, _, wall, _, _, _) =
    let _, _, off_wall, _, _, _ = off in
    wall /. off_wall
  in
  Printf.printf "  cost over off: spans %.2fx, spans+causal %.2fx\n%!" (ratio spans) (ratio both);
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"experiment\":\"obs\",\"workload\":\"cnk pwrite x2000\",\"cells\":[";
  List.iteri
    (fun i (name, events, wall, eps, spans_n, causal_n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"events\":%d,\"wall_s\":%.6f,\"events_per_sec\":%.0f,\"spans\":%d,\"causal_nodes\":%d}"
           name events wall eps spans_n causal_n))
    cells;
  Buffer.add_string buf
    (Printf.sprintf "],\"spans_over_off\":%.3f,\"both_over_off\":%.3f}" (ratio spans) (ratio both));
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_obs.json\n"

(* ------------------------------------------------------------------ *)
(* Health-service overhead: windowed sampling and alert evaluation *)

let run_health () =
  section "health: sampling overhead (off / sampling / sampling+alerts)";
  (* Same seeded pwrite workload as the obs experiment, so the two JSON
     files are directly comparable: the health tick is passive, all
     three cells process the identical architectural event stream, and
     the acceptance bar is that windowed sampling costs less than the
     spans+causal collectors measured in BENCH_obs.json. *)
  let rules =
    List.map
      (fun s ->
        match Bg_obs.Health.parse_rule s with
        | Ok r -> r
        | Error e -> failwith ("bench health: bad rule: " ^ e))
      [
        "retransmit_rate: cio.retransmits rate >= 10 warn";
        "ras_errors: ras.error value >= 1 error";
        "dma_stall: dma.inject_stalls value > 0 warn";
        "span_loss: obs.dropped_spans delta > 0 info";
      ]
  in
  let cell ~name ~health ~rules =
    let t0 = Unix.gettimeofday () in
    let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:1L () in
    let machine = Cnk.Cluster.machine cluster in
    Bg_obs.Obs.set_enabled machine.Machine.obs true;
    let svc =
      if not health then None
      else
        match Machine.attach_health ~window:100_000 ~rules machine with
        | Ok h -> Some h
        | Error e -> failwith ("bench health: " ^ Bg_obs.Health.rule_error_message e)
    in
    Cnk.Cluster.boot_all cluster;
    let entry () =
      let fd = Bg_rt.Libc.openf ~flags:Sysreq.o_create_trunc "/bench_obs.dat" in
      let block = Bytes.make 64 'b' in
      for i = 0 to 1_999 do
        ignore (Bg_rt.Libc.pwrite fd block ~offset:(i * 64))
      done;
      Bg_rt.Libc.close fd
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"iobench" (Image.executable ~name:"iobench" entry));
    let wall = Unix.gettimeofday () -. t0 in
    let events = Bg_engine.Trace.count (Bg_engine.Sim.trace (Cnk.Cluster.sim cluster)) in
    let windows, alerts =
      match svc with
      | None -> (0, 0)
      | Some h ->
        ( Bg_obs.Timeseries.windows_sampled h.Machine.h_ts,
          Bg_obs.Health.alert_count h.Machine.h_svc )
    in
    let eps = float_of_int events /. wall in
    Printf.printf
      "  %-16s %8d events  %6.3f s  %12.0f events/s  (%d windows, %d alerts)\n%!"
      name events wall eps windows alerts;
    (name, events, wall, eps, windows, alerts)
  in
  (* Sequenced as in [run_obs], after a discarded warm-up cell. *)
  ignore (cell ~name:"(warm-up)" ~health:true ~rules);
  let off = cell ~name:"off" ~health:false ~rules:[] in
  let sampling = cell ~name:"sampling" ~health:true ~rules:[] in
  let alerts = cell ~name:"sampling+alerts" ~health:true ~rules in
  let cells = [ off; sampling; alerts ] in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "{\"experiment\":\"health\",\"workload\":\"cnk pwrite x2000\",\"cells\":[";
  List.iteri
    (fun i (name, events, wall, eps, windows, alerts) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"events\":%d,\"wall_s\":%.6f,\"events_per_sec\":%.0f,\"windows\":%d,\"alerts\":%d}"
           name events wall eps windows alerts))
    cells;
  Buffer.add_string buf "]}";
  let oc = open_out "BENCH_health.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_health.json\n"

let run_snap () =
  section "snap: snapshot size, capture/restore cost, bisect probe speedup";
  (* Snapshot cost vs machine size: the cnk_io scenario at 1..8 nodes,
     captured halfway through its run, then restored (deterministic
     replay to the cursor + byte verification of every region). *)
  let module Snaprun = Bg_snaprun.Snaprun in
  let scn name =
    match Snaprun.find name with Some s -> s | None -> failwith ("no scenario " ^ name)
  in
  let cnk = scn "cnk_io" in
  let cells =
    List.map
      (fun nodes ->
        let knobs = [ ("nodes", string_of_int nodes) ] in
        let ref_inst = cnk.Snaprun.build ~seed:1L ~knobs in
        let final = Snaprun.run_until_quiet ref_inst in
        let cursor = final / 2 in
        let inst = cnk.Snaprun.build ~seed:1L ~knobs in
        ignore (Snaprun.run_to inst ~events:cursor);
        let t0 = Unix.gettimeofday () in
        let file = Snaprun.snapshot_of cnk inst ~knobs in
        let capture_s = Unix.gettimeofday () -. t0 in
        let bytes = Bytes.length (Bg_snap.Snap.encode file) in
        let t1 = Unix.gettimeofday () in
        (match Snaprun.restore cnk file with
        | Ok _ -> ()
        | Error e -> failwith ("bench snap: restore failed: " ^ e));
        let restore_s = Unix.gettimeofday () -. t1 in
        Printf.printf
          "  %d node(s): %6d bytes  capture %.4f s  replay-restore %.4f s (cursor %d/%d)\n%!"
          nodes bytes capture_s restore_s cursor final;
        (nodes, bytes, capture_s, restore_s, cursor, final))
      [ 1; 2; 4; 8 ]
  in
  (* Bisect-probe economics on a long FWQ run: a probe replays only to
     its cursor, so early-divergence probes cost a fraction of a full
     cold run — the property that makes the binary search cheap. *)
  let fwk = scn "fwk_noise" in
  let quanta = 4_000 in
  let knobs = [ ("quanta", string_of_int quanta) ] in
  let t0 = Unix.gettimeofday () in
  let ref_inst = fwk.Snaprun.build ~seed:1L ~knobs in
  let final = Snaprun.run_until_quiet ref_inst in
  let full_s = Unix.gettimeofday () -. t0 in
  let cursor = final / 10 in
  let _, file, _ = Snaprun.snapshot_at fwk ~seed:1L ~knobs ~events:cursor in
  let t1 = Unix.gettimeofday () in
  (match Snaprun.restore fwk file with
  | Ok _ -> ()
  | Error e -> failwith ("bench snap: fwk restore failed: " ^ e));
  let probe_s = Unix.gettimeofday () -. t1 in
  let speedup = if probe_s > 0. then full_s /. probe_s else 0. in
  Printf.printf
    "  FWQ x%d: cold run %.4f s (%d events); probe to 10%% cursor %.4f s — %.1fx\n%!"
    quanta full_s final probe_s speedup;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"experiment\":\"snap\",\"cells\":[";
  List.iteri
    (fun i (nodes, bytes, capture_s, restore_s, cursor, final) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"nodes\":%d,\"snapshot_bytes\":%d,\"capture_s\":%.6f,\"restore_s\":%.6f,\"cursor\":%d,\"final_events\":%d}"
           nodes bytes capture_s restore_s cursor final))
    cells;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"fastforward\":{\"workload\":\"fwk_noise quanta=%d\",\"full_run_s\":%.6f,\"final_events\":%d,\"probe_cursor\":%d,\"probe_s\":%.6f,\"speedup\":%.2f}}"
       quanta full_s final cursor probe_s speedup);
  let oc = open_out "BENCH_snap.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_snap.json\n"

(* ------------------------------------------------------------------ *)
(* recover: closed-loop recovery cost — the classic immediate policy vs
   the self-healing engine (backoff + spare substitution) on the same
   fault campaign. MTTR and checkpoint savings quantify the loop. *)

let run_recover () =
  let module Ctl = Bg_control in
  let module Res = Bg_resilience in
  section "recover: classic immediate recovery vs self-healing policy engine";
  let mk_spec name steps =
    {
      Res.Ckpt.name;
      steps;
      step_cycles = 20_000;
      state_bytes = 8 * 1024;
      ckpt_every = 4;
      full_every = 2;
      strategy = Res.Ckpt.Parity_inplace;
    }
  in
  let cell ~name ~policy =
    let t0 = Unix.gettimeofday () in
    let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) ~seed:1L () in
    let machine = Cnk.Cluster.machine cluster in
    Bg_obs.Obs.set_enabled machine.Machine.obs true;
    Cnk.Cluster.boot_all cluster;
    let fabric = Bg_msg.Dcmf.make_fabric machine in
    let sched = Ctl.Scheduler.create cluster in
    if policy then
      Ctl.Partition.set_spare (Ctl.Scheduler.partition sched) ~rank:3 true;
    let inj = Res.Injector.attach cluster in
    if policy then ignore (Res.Policy.attach sched)
    else ignore (Res.Recovery.attach sched);
    let jobs =
      List.init 6 (fun i ->
          let spec = mk_spec (Printf.sprintf "rb%d" i) (24 + (i mod 3 * 4)) in
          let factory, collect = Res.Ckpt.job_factory ~fabric spec in
          let jid =
            Ctl.Scheduler.submit_factory sched ~restart_limit:3 ~shape:(1, 1, 1)
              factory
          in
          (jid, spec, collect))
    in
    let sim = Cnk.Cluster.sim cluster in
    let death cycle rank =
      ignore
        (Sim.schedule_at sim cycle (fun () ->
             Res.Injector.inject_now inj (Res.Fault_event.Node_death { rank })))
    in
    death 2_600_000 0;
    death 3_400_000 1;
    Ctl.Scheduler.drain sched;
    let restarts, restored, scratch =
      List.fold_left
        (fun (r, got, s) (jid, spec, collect) ->
          let n = Ctl.Scheduler.restarts sched jid in
          if n = 0 then (r, got, s)
          else
            List.fold_left
              (fun (r, got, s) (o : Res.Ckpt.outcome) ->
                (r, got + o.Res.Ckpt.restored_step, s + spec.Res.Ckpt.steps))
              (r + n, got, s) (collect ()))
        (0, 0, 0) jobs
    in
    let mttr_p50, mttr_p99 =
      match
        Bg_obs.Obs.timer_histogram machine.Machine.obs ~subsystem:"scheduler"
          ~name:"recovery_latency_cycles" ()
      with
      | None -> (0., 0.)
      | Some h ->
        (Stats.Histogram.percentile h 0.5, Stats.Histogram.percentile h 0.99)
    in
    let makespan = Sim.now sim in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf
      "  %-8s makespan %9d  restarts %d  restored/scratch %3d/%3d steps  MTTR p50 %8.0f p99 %8.0f  (%.3f s)\n%!"
      name makespan restarts restored scratch mttr_p50 mttr_p99 wall;
    (name, makespan, restarts, restored, scratch, mttr_p50, mttr_p99, wall)
  in
  let classic = cell ~name:"classic" ~policy:false in
  let healing = cell ~name:"policy" ~policy:true in
  let cells = [ classic; healing ] in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "{\"experiment\":\"recover\",\"workload\":\"6 ckpt jobs, 2 node deaths\",\"cells\":[";
  List.iteri
    (fun i (name, makespan, restarts, restored, scratch, p50, p99, wall) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"makespan_cycles\":%d,\"restarts\":%d,\"restored_steps\":%d,\"scratch_steps\":%d,\"mttr_p50_cycles\":%.0f,\"mttr_p99_cycles\":%.0f,\"wall_s\":%.6f}"
           name makespan restarts restored scratch p50 p99 wall))
    cells;
  Buffer.add_string buf "]}";
  let oc = open_out "BENCH_recover.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_recover.json\n"

let experiments =
  [
    ("fwq", run_fwq);
    ("latency", run_latency);
    ("bandwidth", run_bandwidth);
    ("stability", run_stability);
    ("capability", run_capability);
    ("bringup", run_bringup);
    ("mapping", run_mapping);
    ("guard", run_guard);
    ("noise-scaling", run_noise_scaling);
    ("tlb", run_tlb);
    ("sched", run_sched);
    ("affinity", run_affinity);
    ("cache", run_cache);
    ("l1-parity", run_l1_parity);
    ("ftq", run_ftq);
    ("io-offload", run_io_offload);
    ("recovery", run_recovery);
    ("collectives", run_collectives);
    ("halo", run_halo);
    ("msg", run_msg);
    ("cg", run_cg);
    ("congestion", run_congestion);
    ("micro", run_micro);
    ("obs", run_obs);
    ("health", run_health);
    ("snap", run_snap);
    ("recover", run_recover);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) experiments
  | [ _; "list" ] -> List.iter (fun (name, _) -> print_endline name) experiments
  | [ _; name ] -> (
    match List.assoc_opt name experiments with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown experiment %s; try 'list'\n" name;
      exit 1)
  | _ ->
    prerr_endline "usage: main.exe [experiment]";
    exit 1
