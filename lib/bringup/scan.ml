open Bg_engine

type snapshot = {
  cycle : Cycles.t;
  chip_state : Fnv.t;
  kernel_state : Fnv.t;
  trace_digest : Fnv.t;
}

let equal a b =
  a.cycle = b.cycle
  && Fnv.equal a.chip_state b.chip_state
  && Fnv.equal a.kernel_state b.kernel_state
  && Fnv.equal a.trace_digest b.trace_digest

let pp ppf s =
  Format.fprintf ppf "@[scan@@%d chip=%a kernel=%a trace=%a@]" s.cycle Fnv.pp
    s.chip_state Fnv.pp s.kernel_state Fnv.pp s.trace_digest

let capture_at ~run ~rank ~cycle =
  let cluster = run () in
  let sim = Cnk.Cluster.sim cluster in
  let node = Cnk.Cluster.node cluster rank in
  let stop = Bg_hw.Clock_stop.create sim ~chip:(Cnk.Node.chip node) in
  Bg_hw.Clock_stop.arm stop ~at_cycle:cycle;
  match Sim.run sim with
  | Sim.Halted reason
    when reason = Bg_hw.Clock_stop.reason_prefix ^ string_of_int rank ->
    {
      cycle;
      chip_state = Bg_hw.Chip.scan_state (Cnk.Node.chip node);
      kernel_state = Cnk.Node.scan_state node;
      trace_digest = Trace.digest (Sim.trace sim);
    }
  | Sim.Halted other -> failwith ("Scan.capture_at: unexpected halt: " ^ other)
  | Sim.Completed | Sim.Reached_limit | Sim.Stopped ->
    failwith "Scan.capture_at: workload ended before the stop cycle"
