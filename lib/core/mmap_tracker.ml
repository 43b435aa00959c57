let grain = 1024 * 1024 (* carve mmaps at 1 MB granularity *)

let dirty_grain = 4096 (* dirty tracking works at page granularity *)

type t = {
  base : int;
  limit : int;           (* exclusive top of the whole range *)
  stack_lo : int;        (* main stack occupies [stack_lo, limit) *)
  mutable break_ : int;
  (* allocated mmap ranges, disjoint, sorted by address *)
  mutable mapped : (int * int) list;  (* (addr, len) *)
  mutable last_mprotect : (int * int) option;
  mutable dirty : (int, unit) Hashtbl.t option;
      (* dirty pages, keyed by page index; no table until the first write *)
}

let create ~base ~bytes ~main_stack_bytes =
  if bytes <= main_stack_bytes then invalid_arg "Mmap_tracker.create";
  let limit = base + bytes in
  {
    base;
    limit;
    stack_lo = limit - main_stack_bytes;
    break_ = base;
    mapped = [];
    last_mprotect = None;
    dirty = None;
  }

let heap_end t = t.break_

let lowest_obstacle t =
  match t.mapped with (addr, _) :: _ -> min addr t.stack_lo | [] -> t.stack_lo

let brk t = function
  | None -> Ok t.break_
  | Some addr ->
    if addr < t.base then Error Errno.EINVAL
    else if addr > lowest_obstacle t then Error Errno.ENOMEM
    else begin
      t.break_ <- addr;
      Ok addr
    end

let round_up v = (v + grain - 1) / grain * grain

(* Free gaps between the break and the stack, excluding mapped ranges,
   highest first. *)
let gaps t =
  let ceiling = t.stack_lo in
  let floor = round_up t.break_ in
  let rec walk cursor acc = function
    | [] -> if cursor < ceiling then (cursor, ceiling - cursor) :: acc else acc
    | (addr, len) :: rest ->
      let acc = if cursor < addr then (cursor, addr - cursor) :: acc else acc in
      walk (max cursor (addr + len)) acc rest
  in
  (* mapped is sorted ascending; result accumulates so the head is the
     highest gap. *)
  walk floor [] t.mapped

let insert_sorted t addr len =
  let rec go = function
    | [] -> [ (addr, len) ]
    | (a, l) :: rest when a < addr -> (a, l) :: go rest
    | rest -> (addr, len) :: rest
  in
  t.mapped <- go t.mapped

let mmap t ~length =
  if length <= 0 then Error Errno.EINVAL
  else begin
    let need = round_up length in
    match List.find_opt (fun (_, glen) -> glen >= need) (gaps t) with
    | None -> Error Errno.ENOMEM
    | Some (gaddr, glen) ->
      (* take the top of the gap, Linux-style top-down *)
      let addr = gaddr + glen - need in
      insert_sorted t addr need;
      Ok addr
  end

let munmap t ~addr ~length =
  if length <= 0 || addr < t.base then Error Errno.EINVAL
  else begin
    let lo = addr and hi = addr + round_up length in
    (* Every byte of [lo, hi) must be inside some mapped range. *)
    let covered =
      let rec check cursor = function
        | _ when cursor >= hi -> true
        | [] -> false
        | (a, l) :: rest ->
          if cursor < a then false
          else if cursor < a + l then check (max cursor (a + l)) rest
          else check cursor rest
      in
      check lo (List.filter (fun (a, l) -> a + l > lo) t.mapped)
    in
    if not covered then Error Errno.EINVAL
    else begin
      let remains =
        List.concat_map
          (fun (a, l) ->
            let keep_lo = (a, min l (max 0 (lo - a))) in
            let keep_hi = (max a (min (a + l) hi), max 0 (a + l - hi)) in
            List.filter (fun (_, len) -> len > 0) [ keep_lo; keep_hi ])
          t.mapped
      in
      t.mapped <- List.sort compare remains;
      Ok ()
    end
  end

let is_mapped t ~addr ~length =
  let hi = addr + length in
  List.exists (fun (a, l) -> addr >= a && hi <= a + l) t.mapped

let record_mprotect t ~addr ~length = t.last_mprotect <- Some (addr, length)
let last_mprotect t = t.last_mprotect
let main_stack_lo t = t.stack_lo
let main_stack_hi t = t.limit
let mapped_bytes t = List.fold_left (fun acc (_, l) -> acc + l) 0 t.mapped

let free_bytes t = List.fold_left (fun acc (_, l) -> acc + l) 0 (gaps t)

(* -- dirty-page tracking (incremental checkpoints) ---------------------- *)

let dirty_table t =
  match t.dirty with
  | Some d -> d
  | None ->
    let d = Hashtbl.create 64 in
    t.dirty <- Some d;
    d

let mark_dirty t ~addr ~len =
  if len > 0 then begin
    (* clamp to the tracked range; writes elsewhere (text, shared segment,
       persistent regions) are not checkpoint state *)
    let lo = max addr t.base and hi = min (addr + len) t.limit in
    if lo < hi then begin
      let dirty = dirty_table t in
      for page = lo / dirty_grain to (hi - 1) / dirty_grain do
        Hashtbl.replace dirty page ()
      done
    end
  end

let clear_dirty t = Option.iter Hashtbl.reset t.dirty

let dirty_pages t =
  match t.dirty with
  | None -> []
  | Some d -> Hashtbl.fold (fun page () acc -> page :: acc) d []

let dirty_ranges t =
  let pages = List.sort_uniq compare (dirty_pages t) in
  (* coalesce runs of adjacent pages into (addr, len) ranges *)
  let rec coalesce acc = function
    | [] -> List.rev acc
    | p :: rest ->
      let rec run last = function
        | q :: qs when q = last + 1 -> run q qs
        | qs -> (last, qs)
      in
      let last, rest = run p rest in
      coalesce ((p * dirty_grain, (last - p + 1) * dirty_grain) :: acc) rest
  in
  coalesce [] pages

let dirty_bytes t =
  match t.dirty with None -> 0 | Some d -> Hashtbl.length d * dirty_grain

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.base;
  w_i t.limit;
  w_i t.stack_lo;
  w_i t.break_;
  w_i (List.length t.mapped);
  List.iter
    (fun (addr, len) ->
      w_i addr;
      w_i len)
    t.mapped;
  (match t.last_mprotect with
  | None -> Buffer.add_uint8 b 0
  | Some (addr, len) ->
    Buffer.add_uint8 b 1;
    w_i addr;
    w_i len);
  let ranges = dirty_ranges t in
  w_i (List.length ranges);
  List.iter
    (fun (addr, len) ->
      w_i addr;
      w_i len)
    ranges
