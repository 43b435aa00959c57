open Bg_engine

type profile = { period_cycles : int; duration_cycles : int; jitter : float }

let pp_profile ppf p =
  Format.fprintf ppf "period %a, duration %a (%.2f%% cpu)" Cycles.pp p.period_cycles
    Cycles.pp p.duration_cycles
    (100.0 *. float_of_int p.duration_cycles /. float_of_int p.period_cycles)

let injected_fraction p = float_of_int p.duration_cycles /. float_of_int p.period_cycles

let daemon_label = Bg_obs.Obs.label ~cat:"noise" ~name:"daemon"

let attach node ~profile ~seed ~until =
  let machine = Cnk.Node.machine node in
  let sim = machine.Machine.sim in
  let obs = machine.Machine.obs in
  let rank = Cnk.Node.rank node in
  let cores = (Bg_hw.Chip.params (Cnk.Node.chip node)).Bg_hw.Params.cores_per_node in
  for core = 0 to cores - 1 do
    let rng = Rng.create (Int64.add seed (Int64.of_int core)) in
    let rec schedule_next at =
      if at < until then
        ignore
          (Sim.schedule_at sim at (fun () ->
               Cnk.Node.add_core_penalty node ~core ~cycles:profile.duration_cycles;
               (* Attribute each stolen interval so slowdowns in app spans
                  can be traced back to the injected daemon activity. *)
               let module Obs = Bg_obs.Obs in
               Obs.add obs ~rank ~core Metrics.Noise.activations 1;
               Obs.add obs ~rank ~core Metrics.Noise.injected_cycles
                 profile.duration_cycles;
               Obs.span_record_l obs daemon_label ~rank ~core ~start:at
                 ~finish:(at + profile.duration_cycles);
               let spread = float_of_int profile.period_cycles *. profile.jitter in
               let next =
                 at + profile.period_cycles
                 + int_of_float (Rng.float rng (max 1.0 (2.0 *. spread)))
                 - int_of_float spread
               in
               schedule_next next))
    in
    schedule_next (Sim.now sim + Rng.int rng (max 1 profile.period_cycles))
  done
