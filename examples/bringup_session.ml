(* A chip-bringup debugging session, following paper §III end to end:

   1. a "new" chip batch arrives — one chip has a borderline timing bug
      that only some chips, on some runs, exhibit;
   2. the workload is cycle-reproducible under CNK, so each chip gets a
      golden waveform assembled from destructive scans;
   3. noisy reruns are compared scan-for-scan until a chip diverges;
   4. the divergence pinpoints the cycle, and the waveform pair is
      exported as a VCD file, bringup_chip.vcd in the current directory,
      for the logic designers.

   Run with: dune exec examples/bringup_session.exe *)

module B = Bg_bringup

let bug = B.Timing_bug.default_bug

let make_run ~rank ~temperature_seed () =
  let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) ~seed:1L () in
  Cnk.Cluster.boot_all cluster;
  B.Timing_bug.arm bug cluster ~rank ~temperature_seed;
  let image =
    Image.executable ~name:"verification-kernel" (fun () ->
        for _ = 1 to 100 do
          Coro.consume 2_000
        done)
  in
  Cnk.Cluster.launch_all cluster ~ranks:[ rank ] (Job.create ~name:"vk" image);
  cluster

let () =
  Printf.printf "chip batch of 4; susceptibility by manufacturing skew:\n";
  let machine = Machine.create ~dims:(4, 1, 1) () in
  for rank = 0 to 3 do
    let chip = Machine.chip machine rank in
    Printf.printf "  chip %d: skew %.2f -> %s\n" rank
      (Bg_hw.Chip.manufacturing_skew chip)
      (if B.Timing_bug.susceptible bug chip then "SUSCEPTIBLE" else "healthy")
  done;

  Printf.printf "\nverifying reproducibility of the test kernel (chip 0)...\n";
  let ok =
    B.Waveform.reproducible ~run:(make_run ~rank:0 ~temperature_seed:0xC01DL) ~rank:0
      ~cycle:120_500
  in
  Printf.printf "  two cold runs scan identically at cycle 120500: %b\n" ok;

  Printf.printf "\nhunting across the batch (4 reruns per chip, 8 scans each)...\n";
  let findings = B.Timing_bug.hunt bug ~ranks:4 ~samples:8 ~runs_per_rank:4 ~seed:77L in
  List.iter
    (fun f ->
      Printf.printf "  chip %d diverges from its golden waveform at cycle %d\n"
        f.B.Timing_bug.rank f.B.Timing_bug.diverged_at)
    findings;

  (match findings with
  | f :: _ ->
    let rank = f.B.Timing_bug.rank in
    Printf.printf "\nassembling the waveform pair for chip %d...\n" rank;
    let golden =
      B.Waveform.assemble ~run:(make_run ~rank ~temperature_seed:0xC01DL) ~rank
        ~from_cycle:119_744 ~cycles:8 ~stride:256 ()
    in
    let noisy =
      B.Waveform.assemble
        ~run:(make_run ~rank ~temperature_seed:(Int64.of_int (77 + (rank * 1000))))
        ~rank ~from_cycle:119_744 ~cycles:8 ~stride:256 ()
    in
    let vcd = B.Vcd.diff_to_string ~golden ~suspect:noisy in
    let path = "bringup_chip.vcd" in
    let oc = open_out path in
    output_string oc vcd;
    close_out oc;
    Printf.printf "  16 destructive scans (16 full machine runs) -> %s (%d bytes)\n" path
      (String.length vcd);
    Printf.printf "  open it in a VCD viewer: the 'diverged' wire rises at the glitch\n"
  | [] -> Printf.printf "\nno chip diverged in this batch\n")
