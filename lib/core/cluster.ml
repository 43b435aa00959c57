open Bg_engine

type t = {
  machine : Machine.t;
  nodes : Node.t array;
  ciods : Bg_cio.Ciod.t array;  (* indexed by io node *)
  fs : Bg_cio.Fs.t;
  nodes_per_io_node : int;
}

let create ?params ?seed ?mapping_config ?nodes_per_io_node ?cio ~dims () =
  let machine = Machine.create ?params ?seed ?nodes_per_io_node ~dims () in
  let n = Machine.nodes machine in
  let nodes_per_io_node =
    match nodes_per_io_node with Some k -> k | None -> if n <= 64 then n else 64
  in
  let io_nodes = (n + nodes_per_io_node - 1) / nodes_per_io_node in
  let fs = Bg_cio.Fs.create () in
  let ciods =
    Array.init io_nodes (fun io_node ->
        Bg_cio.Ciod.create machine ~fs ?config:cio ~io_node ())
  in
  let nodes =
    Array.init n (fun rank ->
        Node.create ?mapping_config machine ~rank ~ciod:ciods.(rank / nodes_per_io_node) ())
  in
  { machine; nodes; ciods; fs; nodes_per_io_node }

let machine t = t.machine
let sim t = t.machine.Machine.sim
let nodes t = t.nodes
let node t i = t.nodes.(i)
let fs t = t.fs
let ciod_for t ~rank = t.ciods.(rank / t.nodes_per_io_node)
let ciod t ~io_node = t.ciods.(io_node)
let io_node_count t = Array.length t.ciods

let pset_ranks t ~io_node =
  let n = Array.length t.nodes in
  let lo = io_node * t.nodes_per_io_node in
  let hi = min n (lo + t.nodes_per_io_node) in
  List.init (hi - lo) (fun i -> lo + i)

let run_down t remaining =
  let sim = sim t in
  match Sim.run ~stop:(fun () -> !remaining = 0) sim with
  | Sim.Stopped -> ()
  | outcome ->
    raise (Sim.Stalled { outcome; fired = Sim.events_fired sim; waiting = !remaining })

(* One shared callback and no closure per node: boot time follows the
   GC phase, so booting allocates little beyond what the nodes do. *)
let boot_all t =
  let remaining = ref (Array.length t.nodes) in
  let on_ready () = decr remaining in
  for i = 0 to Array.length t.nodes - 1 do
    Node.boot t.nodes.(i) ~on_ready
  done;
  run_down t remaining

let launch_all t ?ranks job =
  let ranks =
    match ranks with Some r -> r | None -> List.init (Array.length t.nodes) Fun.id
  in
  List.iter
    (fun rank ->
      match Node.launch t.nodes.(rank) job with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "launch on rank %d failed: %s" rank e))
    ranks

let run_until_quiet t = ignore (Sim.run (sim t))

let run_job t ?ranks job =
  let ranks =
    match ranks with Some r -> r | None -> List.init (Array.length t.nodes) Fun.id
  in
  let remaining = ref (List.length ranks) in
  let on_done () = decr remaining in
  List.iter (fun rank -> Node.on_job_complete t.nodes.(rank) on_done) ranks;
  launch_all t ~ranks job;
  run_down t remaining
