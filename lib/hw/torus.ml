open Bg_engine

let arrival_label = Trace.label "torus.arrival"


(* Per-link state lives in flat arrays indexed by [rank * 6 + dir], so
   index order is (rank, dir) order and no lookup hashes a key. *)
type t = {
  sim : Sim.t;
  params : Params.t;
  dims : int * int * int;
  nodes : int;
  (* busy-until time per directed link; -1 until a transfer first crosses
     the link. [link_busy], [in_flight] and [busy_cycles] gain a link
     together, so that sentinel also says which links [capture] and
     [busy_links] report. The three stay empty until the first transfer
     that crosses a link: above 42 nodes each is a major-heap block, and
     a machine whose torus carries no traffic should not pay for them. *)
  mutable link_busy : Cycles.t array;
  (* transfers currently crossing each directed link, and the cumulative
     cycles each link has spent serializing payload *)
  mutable in_flight : int array;
  mutable busy_cycles : int array;
  (* per-node DMA injection FIFO: descriptors from one node serialize;
     -1 until the node first injects *)
  inject_busy : Cycles.t array;
  (* one byte per directed link, nonzero while the link is broken *)
  broken : Bytes.t;
  (* [route]'s output: the first [path_len] entries are link indices *)
  path : int array;
  mutable path_len : int;
  mutable enabled : bool;
  mutable transfers : int;
  mutable on_inject : src:int -> unit;
  mutable on_link_down : rank:int -> dir:int -> in_flight:int -> unit;
}

let create sim ?(params = Params.bgp) ~dims () =
  let x, y, z = dims in
  if x <= 0 || y <= 0 || z <= 0 then invalid_arg "Torus.create";
  let nodes = x * y * z in
  {
    sim;
    params;
    dims;
    nodes;
    link_busy = [||];
    in_flight = [||];
    busy_cycles = [||];
    inject_busy = Array.make nodes (-1);
    broken = Bytes.make (nodes * 6) '\000';
    (* the long way round a ring is at most size - 1 hops *)
    path = Array.make (x + y + z) 0;
    path_len = 0;
    enabled = true;
    transfers = 0;
    on_inject = (fun ~src:_ -> ());
    on_link_down = (fun ~rank:_ ~dir:_ ~in_flight:_ -> ());
  }

let set_inject_hook t f = t.on_inject <- f
let set_link_down_hook t f = t.on_link_down <- f

let node_count t = t.nodes
let dims t = t.dims

let check_rank t rank = if rank < 0 || rank >= t.nodes then invalid_arg "Torus.coord_of_rank"

let coord_of_rank t rank =
  let x, y, _ = t.dims in
  check_rank t rank;
  (rank mod x, rank / x mod y, rank / (x * y))

let rank_of_coord t (cx, cy, cz) =
  let x, y, z = t.dims in
  if cx < 0 || cx >= x || cy < 0 || cy >= y || cz < 0 || cz >= z then
    invalid_arg "Torus.rank_of_coord";
  cx + (cy * x) + (cz * x * y)

let is_broken t link = Bytes.get t.broken link <> '\000'

exception Ring_blocked

(* The neighbour of [rank] one hop along direction [dir] of the ring whose
   ranks are [stride] apart and which has [size] nodes. Even directions
   step up the ring, odd ones down, with wraparound. *)
let step ~stride ~size ~dir rank =
  let pos = rank / stride mod size in
  if dir land 1 = 0 then if pos = size - 1 then rank - (stride * (size - 1)) else rank + stride
  else if pos = 0 then rank + (stride * (size - 1))
  else rank - stride

(* Append [steps] hops along [dir] from [rank] to [t.path]. Returns the
   rank reached, or -1 at the first broken link. *)
let rec walk t ~stride ~size ~dir rank steps =
  if steps = 0 then rank
  else
    let link = (rank * 6) + dir in
    if is_broken t link then -1
    else begin
      t.path.(t.path_len) <- link;
      t.path_len <- t.path_len + 1;
      walk t ~stride ~size ~dir (step ~stride ~size ~dir rank) (steps - 1)
    end

(* Move [rank] to position [target] on one axis, whose up direction is
   [dir0]. The short ring direction is preferred (up on a tie); if any link
   on it is broken the router falls back to the long way, and if that is
   also broken the ring is impassable. *)
let axis t ~stride ~size ~dir0 rank target =
  let pos = rank / stride mod size in
  if pos = target then rank
  else begin
    let up = (target - pos + size) mod size in
    let down = size - up in
    let short_dir = if up <= down then dir0 else dir0 + 1 in
    let start = t.path_len in
    let r = walk t ~stride ~size ~dir:short_dir rank (if up <= down then up else down) in
    if r >= 0 then r
    else begin
      t.path_len <- start;
      let r = walk t ~stride ~size ~dir:(short_dir lxor 1) rank (if up <= down then down else up) in
      if r < 0 then raise Ring_blocked;
      r
    end
  end

(* Fill [t.path] with the links a packet crosses, X then Y then Z, and
   return how many there are. *)
let route t ~src ~dst =
  check_rank t src;
  check_rank t dst;
  let x, y, z = t.dims in
  t.path_len <- 0;
  let r = axis t ~stride:1 ~size:x ~dir0:0 src (dst mod x) in
  let r = axis t ~stride:x ~size:y ~dir0:2 r (dst / x mod y) in
  let r = axis t ~stride:(x * y) ~size:z ~dir0:4 r (dst / (x * y)) in
  assert (r = dst);
  t.path_len

let hops t ~src ~dst = route t ~src ~dst

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let check_dir dir = if dir < 0 || dir > 5 then invalid_arg "Torus: bad direction"

(* The link's index, or -1 for a rank outside the torus: such a link
   never carries traffic and is never broken. *)
let link_index t ~rank ~dir =
  check_dir dir;
  if rank < 0 || rank >= t.nodes then -1 else (rank * 6) + dir

let crossed t link = t.link_busy.(link) >= 0

(* A link's entry in one of the three per-link tables; 0 while they are
   still empty. *)
let link_count t table ~rank ~dir =
  let link = link_index t ~rank ~dir in
  if link < 0 || link >= Array.length table then 0 else table.(link)

let link_in_flight t ~rank ~dir = link_count t t.in_flight ~rank ~dir
let link_busy_cycles t ~rank ~dir = link_count t t.busy_cycles ~rank ~dir

let busy_links t =
  let rows = ref [] in
  for link = Array.length t.busy_cycles - 1 downto 0 do
    if crossed t link then rows := ((link / 6, link mod 6), t.busy_cycles.(link)) :: !rows
  done;
  !rows

let total_busy_cycles t = Array.fold_left ( + ) 0 t.busy_cycles

let set_link_broken t ~rank ~dir v =
  let link = link_index t ~rank ~dir in
  if link < 0 then invalid_arg "Torus.set_link_broken";
  if v then begin
    let was = is_broken t link in
    Bytes.set t.broken link '\001';
    (* Severing a link with traffic still crossing it is a RAS-worthy
       hardware event; the machine layer turns this into a typed fault. *)
    if not was then t.on_link_down ~rank ~dir ~in_flight:(link_in_flight t ~rank ~dir)
  end
  else Bytes.set t.broken link '\000'

let link_broken t ~rank ~dir =
  let link = link_index t ~rank ~dir in
  link >= 0 && is_broken t link

let broken_links t =
  let rows = ref [] in
  for link = Bytes.length t.broken - 1 downto 0 do
    if is_broken t link then rows := (link / 6, link mod 6) :: !rows
  done;
  !rows

let serialization_cycles t bytes =
  int_of_float (Float.ceil (float_of_int bytes /. t.params.Params.torus_link_bytes_per_cycle))

let transfer t ~src ~dst ~bytes ?(on_arrival = fun ~arrival_cycle:_ -> ()) () =
  if not t.enabled then raise (Fault.Unavailable "torus");
  let links =
    if src = dst then begin
      check_rank t src;
      [||]
    end
    else
      match route t ~src ~dst with
      | exception Ring_blocked -> raise (Fault.Unavailable "torus ring severed")
      | n -> Array.sub t.path 0 n
  in
  if bytes < 0 then invalid_arg "Torus.transfer";
  t.transfers <- t.transfers + 1;
  t.on_inject ~src;
  let p = t.params in
  (* descriptors from one node go through its injection FIFO in order *)
  let inject_done = Int.max (Sim.now t.sim) t.inject_busy.(src) + p.Params.torus_inject_cycles in
  t.inject_busy.(src) <- inject_done;
  let arrival =
    if src = dst then inject_done + p.Params.torus_receive_cycles
    else begin
      if Array.length t.link_busy = 0 then begin
        t.link_busy <- Array.make (t.nodes * 6) (-1);
        t.in_flight <- Array.make (t.nodes * 6) 0;
        t.busy_cycles <- Array.make (t.nodes * 6) 0
      end;
      let ser = serialization_cycles t bytes in
      (* Wormhole: the head advances hop by hop, stalling on busy links;
         each link is then occupied for the serialization time. *)
      let head = ref inject_done in
      for i = 0 to Array.length links - 1 do
        let link = links.(i) in
        head := Int.max (!head + p.Params.torus_hop_cycles) t.link_busy.(link);
        t.link_busy.(link) <- !head + ser;
        t.in_flight.(link) <- t.in_flight.(link) + 1;
        t.busy_cycles.(link) <- t.busy_cycles.(link) + ser
      done;
      !head + ser + p.Params.torus_receive_cycles
    end
  in
  ignore
    (Sim.schedule_at t.sim arrival (fun () ->
         for i = 0 to Array.length links - 1 do
           let link = links.(i) in
           t.in_flight.(link) <- t.in_flight.(link) - 1
         done;
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
  (* Rows go out in index order, which is (rank, dir) order. *)
  let count n keep =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if keep i then incr c
    done;
    !c
  in
  let links = Array.length t.link_busy in
  let w_link_tbl a =
    w_i (count links (crossed t));
    Array.iteri
      (fun link v ->
        if crossed t link then begin
          w_i (link / 6);
          w_i (link mod 6);
          w_i v
        end)
      a
  in
  let x, y, z = t.dims in
  w_i x;
  w_i y;
  w_i z;
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i t.transfers;
  w_link_tbl t.link_busy;
  w_i (count t.nodes (fun rank -> t.inject_busy.(rank) >= 0));
  Array.iteri
    (fun rank v ->
      if v >= 0 then begin
        w_i rank;
        w_i v
      end)
    t.inject_busy;
  w_i (count (Bytes.length t.broken) (is_broken t));
  for link = 0 to Bytes.length t.broken - 1 do
    if is_broken t link then begin
      w_i (link / 6);
      w_i (link mod 6)
    end
  done;
  w_link_tbl t.in_flight;
  w_link_tbl t.busy_cycles
