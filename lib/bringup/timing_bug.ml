open Bg_engine

type bug = { skew_threshold : float; flake_probability : float; glitch_cycle : int }

let default_bug = { skew_threshold = 0.6; flake_probability = 0.7; glitch_cycle = 120_000 }

let susceptible bug chip = Bg_hw.Chip.manufacturing_skew chip > bug.skew_threshold

let arm bug cluster ~rank ~temperature_seed =
  let node = Cnk.Cluster.node cluster rank in
  let chip = Cnk.Node.chip node in
  if susceptible bug chip then begin
    let rng = Rng.create temperature_seed in
    if Rng.float rng 1.0 < bug.flake_probability then begin
      let sim = Cnk.Cluster.sim cluster in
      let offset = int_of_float (Bg_hw.Chip.manufacturing_skew chip *. 1000.0) in
      ignore
        (Sim.schedule_at sim (bug.glitch_cycle + offset) (fun () ->
             (* the arbiter glitch: an observable spurious event *)
             Sim.emit sim ~label:"torus.arbiter.glitch" ~value:rank))
    end
  end

type finding = { rank : int; diverged_at : Cycles.t }

let hunt bug ~ranks ~samples ~runs_per_rank ~seed =
  (* the reproducible workload under test: a small compute job *)
  let make_run ~rank ~temperature_seed () =
    let cluster = Cnk.Cluster.create ~dims:(max 2 ranks, 1, 1) ~seed () in
    Cnk.Cluster.boot_all cluster;
    arm bug cluster ~rank ~temperature_seed;
    let image =
      Image.executable ~name:"bringup-test" (fun () ->
          for _ = 1 to 100 do
            Coro.consume 2_000
          done)
    in
    Cnk.Cluster.launch_all cluster ~ranks:[ rank ] (Job.create ~name:"bt" image);
    cluster
  in
  (* sample a window that brackets the glitch (its skew offset is < 1024):
     one stride before the base cycle through samples*stride after *)
  let stride = 256 in
  let from_cycle = bug.glitch_cycle - stride in
  List.concat
    (List.init ranks (fun rank ->
         (* golden waveform: a temperature stream that never fires *)
         let golden =
           Waveform.assemble
             ~run:(make_run ~rank ~temperature_seed:0xC01DL)
             ~rank ~from_cycle ~cycles:samples ~stride ()
         in
         let rec try_runs i =
           if i >= runs_per_rank then []
           else begin
             let noisy_seed = Int64.add seed (Int64.of_int ((rank * 1000) + i)) in
             let noisy =
               Waveform.assemble
                 ~run:(make_run ~rank ~temperature_seed:noisy_seed)
                 ~rank ~from_cycle ~cycles:samples ~stride ()
             in
             match Waveform.divergence golden noisy with
             | Some cycle -> [ { rank; diverged_at = cycle } ]
             | None -> try_runs (i + 1)
           end
         in
         try_runs 0))
