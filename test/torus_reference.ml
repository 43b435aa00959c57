(* Reference implementation for the torus model test in [test_hw.ml]: the
   torus as it was when every per-link table was a [Hashtbl] keyed by
   [(rank, dir)] and routing walked coordinate tuples. Kept verbatim apart
   from this header, the [open] below, which names the library the
   module used to live in, and its one trace emit, whose value is now a
   plain int and whose label is declared once, as trace labels now are. *)

open Bg_hw

open Bg_engine

let arrival_label = Trace.label "torus.arrival"

type t = {
  sim : Sim.t;
  params : Params.t;
  dims : int * int * int;
  (* busy-until time per directed link, keyed by (rank, direction 0..5) *)
  link_busy : (int * int, Cycles.t) Hashtbl.t;
  (* per-node DMA injection FIFO: descriptors from one node serialize *)
  inject_busy : (int, Cycles.t) Hashtbl.t;
  broken : (int * int, unit) Hashtbl.t;
  (* transfers currently crossing each directed link, and the cumulative
     cycles each link has spent serializing payload *)
  in_flight : (int * int, int) Hashtbl.t;
  busy_cycles : (int * int, int) Hashtbl.t;
  mutable enabled : bool;
  mutable transfers : int;
  mutable on_inject : src:int -> unit;
  mutable on_link_down : rank:int -> dir:int -> in_flight:int -> unit;
}

let create sim ?(params = Params.bgp) ~dims () =
  let x, y, z = dims in
  if x <= 0 || y <= 0 || z <= 0 then invalid_arg "Torus.create";
  {
    sim;
    params;
    dims;
    link_busy = Hashtbl.create 256;
    inject_busy = Hashtbl.create 64;
    broken = Hashtbl.create 4;
    in_flight = Hashtbl.create 64;
    busy_cycles = Hashtbl.create 256;
    enabled = true;
    transfers = 0;
    on_inject = (fun ~src:_ -> ());
    on_link_down = (fun ~rank:_ ~dir:_ ~in_flight:_ -> ());
  }

let set_inject_hook t f = t.on_inject <- f
let set_link_down_hook t f = t.on_link_down <- f

let node_count t =
  let x, y, z = t.dims in
  x * y * z

let dims t = t.dims

let coord_of_rank t rank =
  let x, y, _ = t.dims in
  let n = node_count t in
  if rank < 0 || rank >= n then invalid_arg "Torus.coord_of_rank";
  (rank mod x, rank / x mod y, rank / (x * y))

let rank_of_coord t (cx, cy, cz) =
  let x, y, z = t.dims in
  if cx < 0 || cx >= x || cy < 0 || cy >= y || cz < 0 || cz >= z then
    invalid_arg "Torus.rank_of_coord";
  cx + (cy * x) + (cz * x * y)

(* Steps along one ring dimension: (hop_count, direction_sign). *)
let ring_steps size from_pos to_pos =
  let fwd = (to_pos - from_pos + size) mod size in
  let bwd = (from_pos - to_pos + size) mod size in
  if fwd <= bwd then (fwd, 1) else (bwd, -1)

exception Ring_blocked

(* The sequence of (rank, direction) links a packet crosses, X then Y then
   Z. Per dimension the short ring direction is preferred; if any link on
   it is broken the router falls back to the long way, and if that is also
   broken the ring is impassable. *)
let route t ~src ~dst =
  let sx, sy, sz = t.dims in
  let cx, cy, cz = coord_of_rank t src in
  let dx, dy, dz = coord_of_rank t dst in
  let links = ref [] in
  let path_clear size axis_dir_base get cur target sign =
    let steps =
      if sign > 0 then (target - get cur + size) mod size
      else (get cur - target + size) mod size
    in
    let dir = if sign > 0 then axis_dir_base else axis_dir_base + 1 in
    let rec ok pos i =
      i >= steps
      ||
      let rank =
        let x, y, z = pos in
        rank_of_coord t (x, y, z)
      in
      (not (Hashtbl.mem t.broken (rank, dir)))
      &&
      let x, y, z = pos in
      let next =
        match axis_dir_base with
        | 0 -> (((x + sign + size) mod size), y, z)
        | 2 -> (x, ((y + sign + size) mod size), z)
        | _ -> (x, y, ((z + sign + size) mod size))
      in
      ok next (i + 1)
    in
    ok cur 0
  in
  let walk size axis_dir_base get set cur target =
    if get cur = target then cur
    else begin
      let _, short_sign = ring_steps size (get cur) target in
      let sign =
        if path_clear size axis_dir_base get cur target short_sign then short_sign
        else if path_clear size axis_dir_base get cur target (-short_sign) then -short_sign
        else raise Ring_blocked
      in
      let steps =
        if sign > 0 then (target - get cur + size) mod size
        else (get cur - target + size) mod size
      in
      let c = ref cur in
      for _ = 1 to steps do
        let dir = if sign > 0 then axis_dir_base else axis_dir_base + 1 in
        links := (rank_of_coord t !c, dir) :: !links;
        c := set !c (((get !c) + sign + size) mod size)
      done;
      !c
    end
  in
  let cur = (cx, cy, cz) in
  let cur = walk sx 0 (fun (x, _, _) -> x) (fun (_, y, z) x -> (x, y, z)) cur dx in
  let cur = walk sy 2 (fun (_, y, _) -> y) (fun (x, _, z) y -> (x, y, z)) cur dy in
  let cur = walk sz 4 (fun (_, _, z) -> z) (fun (x, y, _) z -> (x, y, z)) cur dz in
  assert (rank_of_coord t cur = dst);
  List.rev !links

let hops t ~src ~dst = List.length (route t ~src ~dst)

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let check_dir dir = if dir < 0 || dir > 5 then invalid_arg "Torus: bad direction"

let link_in_flight t ~rank ~dir =
  check_dir dir;
  match Hashtbl.find_opt t.in_flight (rank, dir) with Some n -> n | None -> 0

let link_busy_cycles t ~rank ~dir =
  check_dir dir;
  match Hashtbl.find_opt t.busy_cycles (rank, dir) with Some n -> n | None -> 0

let busy_links t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.busy_cycles [] |> List.sort compare

let total_busy_cycles t = Hashtbl.fold (fun _ v acc -> acc + v) t.busy_cycles 0

let set_link_broken t ~rank ~dir v =
  check_dir dir;
  if v then begin
    let was = Hashtbl.mem t.broken (rank, dir) in
    Hashtbl.replace t.broken (rank, dir) ();
    (* Severing a link with traffic still crossing it is a RAS-worthy
       hardware event; the machine layer turns this into a typed fault. *)
    if not was then t.on_link_down ~rank ~dir ~in_flight:(link_in_flight t ~rank ~dir)
  end
  else Hashtbl.remove t.broken (rank, dir)

let link_broken t ~rank ~dir =
  check_dir dir;
  Hashtbl.mem t.broken (rank, dir)

let broken_links t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.broken [] |> List.sort compare

let serialization_cycles t bytes =
  int_of_float (Float.ceil (float_of_int bytes /. t.params.Params.torus_link_bytes_per_cycle))

let transfer t ~src ~dst ~bytes ?(on_arrival = fun ~arrival_cycle:_ -> ()) () =
  if not t.enabled then raise (Fault.Unavailable "torus");
  let links =
    if src = dst then []
    else
      match route t ~src ~dst with
      | exception Ring_blocked -> raise (Fault.Unavailable "torus ring severed")
      | links -> links
  in
  if bytes < 0 then invalid_arg "Torus.transfer";
  t.transfers <- t.transfers + 1;
  t.on_inject ~src;
  let p = t.params in
  let now = Sim.now t.sim in
  (* descriptors from one node go through its injection FIFO in order *)
  let inject_start =
    max now (match Hashtbl.find_opt t.inject_busy src with Some b -> b | None -> 0)
  in
  let inject_done = inject_start + p.Params.torus_inject_cycles in
  Hashtbl.replace t.inject_busy src inject_done;
  let bump tbl link by =
    let v = match Hashtbl.find_opt tbl link with Some v -> v | None -> 0 in
    Hashtbl.replace tbl link (v + by)
  in
  let arrival =
    if src = dst then inject_done + p.Params.torus_receive_cycles
    else begin
      let ser = serialization_cycles t bytes in
      (* Wormhole: the head advances hop by hop, stalling on busy links;
         each link is then occupied for the serialization time. *)
      let head = ref inject_done in
      List.iter
        (fun link ->
          let busy =
            match Hashtbl.find_opt t.link_busy link with Some b -> b | None -> 0
          in
          head := max (!head + p.Params.torus_hop_cycles) busy;
          Hashtbl.replace t.link_busy link (!head + ser);
          bump t.in_flight link 1;
          bump t.busy_cycles link ser)
        links;
      !head + ser + p.Params.torus_receive_cycles
    end
  in
  ignore
    (Sim.schedule_at t.sim arrival (fun () ->
         List.iter (fun link -> bump t.in_flight link (-1)) links;
         Sim.emit t.sim ~label:arrival_label ~value:((src * 65536) + dst);
         on_arrival ~arrival_cycle:arrival))

let estimate_cycles t ~src ~dst ~bytes =
  let p = t.params in
  if src = dst then p.Params.torus_inject_cycles + p.Params.torus_receive_cycles
  else
    p.Params.torus_inject_cycles
    + (hops t ~src ~dst * p.Params.torus_hop_cycles)
    + serialization_cycles t bytes
    + p.Params.torus_receive_cycles

let transfers_started t = t.transfers

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  let w_link_tbl tbl =
    let rows = sorted tbl in
    w_i (List.length rows);
    List.iter
      (fun ((rank, dir), v) ->
        w_i rank;
        w_i dir;
        w_i v)
      rows
  in
  let x, y, z = t.dims in
  w_i x;
  w_i y;
  w_i z;
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i t.transfers;
  w_link_tbl t.link_busy;
  (let rows = sorted t.inject_busy in
   w_i (List.length rows);
   List.iter
     (fun (rank, v) ->
       w_i rank;
       w_i v)
     rows);
  (let rows = sorted t.broken in
   w_i (List.length rows);
   List.iter
     (fun ((rank, dir), ()) ->
       w_i rank;
       w_i dir)
     rows);
  w_link_tbl t.in_flight;
  w_link_tbl t.busy_cycles
