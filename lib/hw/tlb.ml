type perm = { read : bool; write : bool; execute : bool }

let perm_rwx = { read = true; write = true; execute = true }
let perm_rw = { read = true; write = true; execute = false }
let perm_rx = { read = true; write = false; execute = true }
let perm_ro = { read = true; write = false; execute = false }

type entry = { vaddr : int; paddr : int; size : Page_size.t; perm : perm }

type access = Load | Store | Fetch

type result = Hit of int | Miss | Fault of string

type t = {
  capacity : int;
  mutable entries : entry list;  (* oldest last, for FIFO eviction *)
  mutable evictions : int;
  mutable misses : int;
  mutable on_miss : unit -> unit;
  mutable on_refill : int -> unit;  (* entries installed by one call *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Tlb.create";
  {
    capacity;
    entries = [];
    evictions = 0;
    misses = 0;
    on_miss = ignore;
    on_refill = ignore;
  }

let set_miss_hook t f = t.on_miss <- f
let set_refill_hook t f = t.on_refill <- f

let covers e addr =
  addr >= e.vaddr && addr < e.vaddr + Page_size.bytes e.size

let overlaps a b =
  let a_end = a.vaddr + Page_size.bytes a.size in
  let b_end = b.vaddr + Page_size.bytes b.size in
  a.vaddr < b_end && b.vaddr < a_end

let check_aligned e =
  if not (Page_size.aligned e.size e.vaddr) then
    Some
      (Printf.sprintf "vaddr 0x%x not aligned to %s page" e.vaddr
         (Page_size.to_string e.size))
  else if not (Page_size.aligned e.size e.paddr) then
    Some
      (Printf.sprintf "paddr 0x%x not aligned to %s page" e.paddr
         (Page_size.to_string e.size))
  else None

let overlap_error e = Printf.sprintf "entry at 0x%x overlaps an installed mapping" e.vaddr

(* Every entry but the last (the oldest), in one pass. *)
let rec drop_oldest = function [] | [ _ ] -> [] | e :: rest -> e :: drop_oldest rest

let install t e =
  match check_aligned e with
  | Some msg -> Error msg
  | None ->
    if List.exists (overlaps e) t.entries then Error (overlap_error e)
    else begin
      if List.compare_length_with t.entries t.capacity >= 0 then begin
        (* FIFO eviction of the oldest entry. *)
        t.entries <- drop_oldest t.entries;
        t.evictions <- t.evictions + 1
      end;
      t.entries <- e :: t.entries;
      t.on_refill 1;
      Ok ()
    end

(* A static map validated once, ready to load onto any number of cores:
   the entries that a sequential [install] loop from an empty TLB would
   accept (newest first, as [t.entries] holds them) and the error that
   stops the loop, if any. *)
type static_map = { accepted : entry list; accepted_count : int; error : string option }

let prepare entries =
  let rec walk accepted n = function
    | [] -> (accepted, n, None)
    | e :: rest -> (
      match check_aligned e with
      | Some msg -> (accepted, n, Some msg)
      | None ->
        if List.exists (overlaps e) accepted then (accepted, n, Some (overlap_error e))
        else walk (e :: accepted) (n + 1) rest)
  in
  let accepted, accepted_count, error = walk [] 0 entries in
  { accepted; accepted_count; error }

let capacity_error m ~capacity =
  if m.accepted_count > capacity then
    Some
      (Printf.sprintf "static map of %d entries exceeds TLB capacity %d" m.accepted_count
         capacity)
  else None

let check m ~capacity =
  match capacity_error m ~capacity with
  | Some msg -> Error msg
  | None -> ( match m.error with None -> Ok () | Some msg -> Error msg)

let load t m =
  match capacity_error m ~capacity:t.capacity with
  | Some msg -> Error msg
  | None -> (
    t.entries <- m.accepted;
    (* one hook call for the whole map: the counters see the same total
       as one refill per entry *)
    if m.accepted_count > 0 then t.on_refill m.accepted_count;
    match m.error with None -> Ok () | Some msg -> Error msg)

let permitted access perm =
  match access with
  | Load -> perm.read
  | Store -> perm.write
  | Fetch -> perm.execute

let denied access addr =
  Fault
    (Printf.sprintf "%s access to 0x%x denied"
       (match access with Load -> "load" | Store -> "store" | Fetch -> "fetch")
       addr)

(* A walk with the address as an argument: [List.find_opt] with a
   closure over it would allocate on every translation. *)
let rec lookup t access addr = function
  | [] ->
    t.misses <- t.misses + 1;
    t.on_miss ();
    Miss
  | e :: rest ->
    if covers e addr then
      if permitted access e.perm then Hit (e.paddr + (addr - e.vaddr)) else denied access addr
    else lookup t access addr rest

let translate t access addr = lookup t access addr t.entries

let flush t = t.entries <- []

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_b v = Buffer.add_uint8 b (if v then 1 else 0) in
  w_i t.capacity;
  w_i t.evictions;
  w_i t.misses;
  w_i (List.length t.entries);
  List.iter
    (fun e ->
      w_i e.vaddr;
      w_i e.paddr;
      w_i (Page_size.bytes e.size);
      w_b e.perm.read;
      w_b e.perm.write;
      w_b e.perm.execute)
    t.entries
let entries t = t.entries
let entry_count t = List.length t.entries
let evictions t = t.evictions
let misses t = t.misses
