type allocation = {
  id : int;
  base : int * int * int;
  shape : int * int * int;
  ranks : int list;
}

type t = {
  dims : int * int * int;
  occupied : bool array;  (* indexed by rank *)
  down : bool array;      (* RAS marked the node dead; never allocate *)
  spare : bool array;     (* held in reserve; activated by [substitute] *)
  mutable free : int;     (* ranks neither occupied, down nor spare *)
  mutable substitutions : int;
  mutable live : allocation list;
  mutable next_id : int;
}

let create ~dims =
  let x, y, z = dims in
  if x <= 0 || y <= 0 || z <= 0 then invalid_arg "Partition.create";
  {
    dims;
    occupied = Array.make (x * y * z) false;
    down = Array.make (x * y * z) false;
    spare = Array.make (x * y * z) false;
    free = x * y * z;
    substitutions = 0;
    live = [];
    next_id = 1;
  }

let rank_of t (cx, cy, cz) =
  let x, y, _ = t.dims in
  cx + (cy * x) + (cz * x * y)

(* Member ranks of an in-bounds box, ascending: z-major, then y, then x
   is rank order. *)
let box_ranks t (bx, by, bz) (sx, sy, sz) =
  let acc = ref [] in
  for dz = sz - 1 downto 0 do
    for dy = sy - 1 downto 0 do
      for dx = sx - 1 downto 0 do
        acc := rank_of t (bx + dx, by + dy, bz + dz) :: !acc
      done
    done
  done;
  !acc

let rank_free t r = (not t.occupied.(r)) && (not t.down.(r)) && not t.spare.(r)

(* Every write to the three masks goes through here, so [free] stays
   the count {!free_nodes} would get by scanning them. *)
let set_mask t mask r v =
  let was = rank_free t r in
  mask.(r) <- v;
  match (was, rank_free t r) with
  | true, false -> t.free <- t.free - 1
  | false, true -> t.free <- t.free + 1
  | _ -> ()

let box_in_bounds t (bx, by, bz) (sx, sy, sz) =
  let x, y, z = t.dims in
  bx >= 0 && by >= 0 && bz >= 0 && bx + sx <= x && by + sy <= y && bz + sz <= z

(* Is every member of the in-bounds box free? Scans the occupancy arrays
   in place, stopping at the first taken rank; allocates nothing. *)
let box_free_at t bx by bz sx sy sz =
  let x, y, _ = t.dims in
  match
    for dz = 0 to sz - 1 do
      for dy = 0 to sy - 1 do
        let row = bx + ((by + dy) * x) + ((bz + dz) * x * y) in
        for r = row to row + sx - 1 do
          if not (rank_free t r) then raise_notrace Exit
        done
      done
    done
  with
  | () -> true
  | exception Exit -> false

let free_box t ~base ~shape =
  let bx, by, bz = base and sx, sy, sz = shape in
  box_in_bounds t base shape && box_free_at t bx by bz sx sy sz

let ranks_of_box t ~base ~shape =
  if not (box_in_bounds t base shape) then invalid_arg "Partition.ranks_of_box"
  else box_ranks t base shape

let shape_fits t (sx, sy, sz) =
  let x, y, z = t.dims in
  sx > 0 && sy > 0 && sz > 0 && sx <= x && sy <= y && sz <= z

let free_bases t ~shape =
  if not (shape_fits t shape) then []
  else begin
    let x, y, z = t.dims in
    let sx, sy, sz = shape in
    let acc = ref [] in
    for bz = z - sz downto 0 do
      for by = y - sy downto 0 do
        for bx = x - sx downto 0 do
          if box_free_at t bx by bz sx sy sz then acc := (bx, by, bz) :: !acc
        done
      done
    done;
    !acc
  end

let first_free_base t ~shape =
  if not (shape_fits t shape) then None
  else begin
    let x, y, z = t.dims in
    let sx, sy, sz = shape in
    (* first fit over base coordinates, z-major like rank order *)
    let found = ref None in
    (try
       for bz = 0 to z - sz do
         for by = 0 to y - sy do
           for bx = 0 to x - sx do
             if box_free_at t bx by bz sx sy sz then begin
               found := Some (bx, by, bz);
               raise_notrace Exit
             end
           done
         done
       done
     with Exit -> ());
    !found
  end

let commit t base shape ranks =
  List.iter (fun r -> set_mask t t.occupied r true) ranks;
  let a = { id = t.next_id; base; shape; ranks } in
  t.next_id <- t.next_id + 1;
  t.live <- a :: t.live;
  Ok a

let allocate ?base t ~shape =
  let x, y, z = t.dims in
  let sx, sy, sz = shape in
  if sx <= 0 || sy <= 0 || sz <= 0 then Error "bad shape"
  else if sx > x || sy > y || sz > z then Error "shape exceeds the machine"
  else
    match base with
    | Some b ->
      (* placement-directed: the caller (a torus-aware placer) already
         chose the box; allocate exactly there or fail *)
      if free_box t ~base:b ~shape then commit t b shape (box_ranks t b shape)
      else Error "requested base not free"
    | None -> (
      match first_free_base t ~shape with
      | None -> Error "no free partition of that shape"
      | Some b -> commit t b shape (box_ranks t b shape))

let release t id =
  match List.find_opt (fun a -> a.id = id) t.live with
  | None -> invalid_arg "Partition.release: unknown id"
  | Some a ->
    List.iter (fun r -> set_mask t t.occupied r false) a.ranks;
    t.live <- List.filter (fun x -> x.id <> id) t.live

let free_nodes t = t.free

let allocated t = List.rev t.live
let total_nodes t = Array.length t.occupied

let set_down t ~rank down =
  if rank < 0 || rank >= Array.length t.down then invalid_arg "Partition.set_down";
  set_mask t t.down rank down

let is_down t ~rank = t.down.(rank)

let down_nodes t =
  let acc = ref [] in
  Array.iteri (fun r d -> if d then acc := r :: !acc) t.down;
  List.rev !acc

(* -- spare pool ------------------------------------------------------

   Spares sit outside the allocatable pool until a node death spends
   one: [substitute] returns the lowest-ranked spare to the pool so the
   next allocation finds a full-strength machine even though the dead
   rank never comes back. *)

let set_spare t ~rank flag =
  if rank < 0 || rank >= Array.length t.spare then invalid_arg "Partition.set_spare";
  if flag && (t.occupied.(rank) || t.down.(rank)) then
    invalid_arg "Partition.set_spare: rank is occupied or down";
  set_mask t t.spare rank flag

let spare_ranks t =
  let acc = ref [] in
  Array.iteri (fun r s -> if s then acc := r :: !acc) t.spare;
  List.rev !acc

let substitutions t = t.substitutions

let substitute t ~dead:_ =
  let rec find r =
    if r >= Array.length t.spare then None
    else if t.spare.(r) && not t.down.(r) then begin
      set_mask t t.spare r false;
      t.substitutions <- t.substitutions + 1;
      Some r
    end
    else find (r + 1)
  in
  find 0

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let x, y, z = t.dims in
  w_i x;
  w_i y;
  w_i z;
  w_i t.next_id;
  w_i t.substitutions;
  Array.iter (fun o -> Buffer.add_uint8 b (if o then 1 else 0)) t.occupied;
  Array.iter (fun d -> Buffer.add_uint8 b (if d then 1 else 0)) t.down;
  Array.iter (fun s -> Buffer.add_uint8 b (if s then 1 else 0)) t.spare;
  let live = allocated t in
  w_i (List.length live);
  List.iter
    (fun a ->
      w_i a.id;
      let bx, by, bz = a.base in
      let sx, sy, sz = a.shape in
      w_i bx;
      w_i by;
      w_i bz;
      w_i sx;
      w_i sy;
      w_i sz;
      w_i (List.length a.ranks);
      List.iter w_i a.ranks)
    live
