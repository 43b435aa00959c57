open Bg_engine

(* Trace labels, declared once (see [Fnv.Label]). *)
module L = struct
  let corrupt = Trace.label "collective.corrupt"
  let down = Trace.label "collective.down"
  let drop = Trace.label "collective.drop"
  let dup = Trace.label "collective.dup"
  let up = Trace.label "collective.up"
end

type fault_config = {
  drop_rate : float;
  corrupt_rate : float;
  dup_rate : float;
  jitter_max : int;
}

let no_faults = { drop_rate = 0.; corrupt_rate = 0.; dup_rate = 0.; jitter_max = 0 }

let validate_faults f =
  let rate r = r >= 0. && r <= 1. in
  if
    not
      (rate f.drop_rate && rate f.corrupt_rate && rate f.dup_rate && f.jitter_max >= 0)
  then invalid_arg "Collective_net: fault rates must be in [0,1], jitter_max >= 0"

type t = {
  sim : Sim.t;
  params : Params.t;
  compute_nodes : int;
  nodes_per_io_node : int;
  (* busy-until of each I/O node's shared root link, per direction *)
  up_busy : Cycles.t array;
  down_busy : Cycles.t array;
  mutable enabled : bool;
  mutable faults : fault_config;
  mutable drops : int;
  mutable corruptions : int;
  mutable duplicates : int;
}

let create sim ?(params = Params.bgp) ~compute_nodes ~nodes_per_io_node () =
  if compute_nodes <= 0 || nodes_per_io_node <= 0 then
    invalid_arg "Collective_net.create";
  let io_nodes = (compute_nodes + nodes_per_io_node - 1) / nodes_per_io_node in
  {
    sim;
    params;
    compute_nodes;
    nodes_per_io_node;
    up_busy = Array.make io_nodes 0;
    down_busy = Array.make io_nodes 0;
    enabled = true;
    faults = no_faults;
    drops = 0;
    corruptions = 0;
    duplicates = 0;
  }

let compute_nodes t = t.compute_nodes
let io_node_count t = Array.length t.up_busy

let io_node_of t ~cn =
  if cn < 0 || cn >= t.compute_nodes then invalid_arg "Collective_net.io_node_of";
  cn / t.nodes_per_io_node

let tree_depth t =
  (* Binary-tree depth of a pset. *)
  let rec go depth n = if n <= 1 then depth else go (depth + 1) ((n + 1) / 2) in
  go 1 t.nodes_per_io_node

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let fault_config t = t.faults

let set_fault_config t f =
  validate_faults f;
  t.faults <- f

let drops t = t.drops
let corruptions t = t.corruptions
let duplicates t = t.duplicates

let faults_active t =
  let f = t.faults in
  f.drop_rate > 0. || f.corrupt_rate > 0. || f.dup_rate > 0. || f.jitter_max > 0

let serialization_cycles t bytes =
  int_of_float
    (Float.ceil (float_of_int bytes /. t.params.Params.collective_link_bytes_per_cycle))

let estimate_cycles t ~bytes =
  (tree_depth t * t.params.Params.collective_hop_cycles) + serialization_cycles t bytes

(* Flip one uniformly-chosen bit of a private copy of the message. *)
let corrupt_copy rng payload =
  let copy = Bytes.copy payload in
  if Bytes.length copy > 0 then begin
    let bit = Rng.int rng (Bytes.length copy * 8) in
    let i = bit / 8 in
    Bytes.set_uint8 copy i (Bytes.get_uint8 copy i lxor (1 lsl (bit mod 8)))
  end;
  copy

(* Deliver one copy of the message, applying the fault model. Draw order is
   fixed (drop, corrupt, jitter) so a run is a pure function of the seed. *)
let deliver_copy t rng ~payload ~arrival ~on_arrival =
  let f = t.faults in
  if f.drop_rate > 0. && Rng.float rng 1.0 < f.drop_rate then begin
    t.drops <- t.drops + 1;
    Sim.emit t.sim ~label:L.drop ~value:t.drops
  end
  else begin
    let payload =
      if f.corrupt_rate > 0. && Rng.float rng 1.0 < f.corrupt_rate then begin
        t.corruptions <- t.corruptions + 1;
        Sim.emit t.sim ~label:L.corrupt ~value:t.corruptions;
        corrupt_copy rng payload
      end
      else payload
    in
    let arrival =
      if f.jitter_max > 0 then arrival + Rng.int rng (f.jitter_max + 1) else arrival
    in
    ignore
      (Sim.schedule_at t.sim arrival (fun () -> on_arrival ~payload ~arrival_cycle:arrival))
  end

let ship t busy idx ~payload ~on_arrival =
  if not t.enabled then raise (Fault.Unavailable "collective");
  let now = Sim.now t.sim in
  let ser = serialization_cycles t (Bytes.length payload) in
  let start = max now busy.(idx) in
  busy.(idx) <- start + ser;
  let arrival = start + ser + (tree_depth t * t.params.Params.collective_hop_cycles) in
  if not (faults_active t) then
    (* Lossless tree: the pre-fault-model behavior, bit for bit. *)
    ignore
      (Sim.schedule_at t.sim arrival (fun () -> on_arrival ~payload ~arrival_cycle:arrival))
  else begin
    let rng = Sim.rng t.sim "collective.faults" in
    deliver_copy t rng ~payload ~arrival ~on_arrival;
    if t.faults.dup_rate > 0. && Rng.float rng 1.0 < t.faults.dup_rate then begin
      t.duplicates <- t.duplicates + 1;
      Sim.emit t.sim ~label:L.dup ~value:t.duplicates;
      deliver_copy t rng ~payload ~arrival ~on_arrival
    end
  end

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_f v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  w_i t.compute_nodes;
  w_i t.nodes_per_io_node;
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i (Array.length t.up_busy);
  Array.iter w_i t.up_busy;
  Array.iter w_i t.down_busy;
  w_f t.faults.drop_rate;
  w_f t.faults.corrupt_rate;
  w_f t.faults.dup_rate;
  w_i t.faults.jitter_max;
  w_i t.drops;
  w_i t.corruptions;
  w_i t.duplicates

let to_io_node t ~cn ~payload ~on_arrival =
  let io = io_node_of t ~cn in
  Sim.emit t.sim ~label:L.up ~value:cn;
  ship t t.up_busy io ~payload ~on_arrival

let to_compute_node t ~cn ~payload ~on_arrival =
  let io = io_node_of t ~cn in
  Sim.emit t.sim ~label:L.down ~value:cn;
  ship t t.down_busy io ~payload ~on_arrival
