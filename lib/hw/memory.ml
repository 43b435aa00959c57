let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

(* A write recorded by [write_deferred]: [draw ()] yields its [len]
   bytes. Pending writes never overlap one another, so they settle in
   any order. *)
type pending = { p_addr : int; p_len : int; draw : unit -> bytes }

type t = {
  size : int;
  chunks : (int, bytes) Hashtbl.t;
  mutable pending : pending list;
  (* [lo, hi) spans every pending write (empty when there are none), so
     an access outside it costs two compares. *)
  mutable lo : int;
  mutable hi : int;
}

let create ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  { size; chunks = Hashtbl.create 64; pending = []; lo = 0; hi = 0 }

let size t = t.size

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    invalid_arg
      (Printf.sprintf "Memory: access [0x%x, +%d) outside of %d bytes" addr len
         t.size)

(* Shared all-zero chunk handed out for reads of untouched memory. Never
   exposed to writers, so it stays zero. *)
let zero_chunk = Bytes.make chunk_size '\000'

let chunk_rw t idx =
  match Hashtbl.find_opt t.chunks idx with
  | Some c -> c
  | None ->
    let c = Bytes.make chunk_size '\000' in
    Hashtbl.add t.chunks idx c;
    c

let chunk_ro t idx =
  match Hashtbl.find_opt t.chunks idx with Some c -> c | None -> zero_chunk

(* Walk the chunks overlapping [addr, addr+len), calling
   [f chunk offset_in_chunk offset_in_buffer span]. *)
let iter_spans t addr len ~alloc f =
  let chunk = if alloc then chunk_rw t else chunk_ro t in
  let pos = ref addr in
  let done_ = ref 0 in
  while !done_ < len do
    let idx = !pos lsr chunk_bits in
    let off = !pos land (chunk_size - 1) in
    let span = min (chunk_size - off) (len - !done_) in
    f (chunk idx) off !done_ span;
    pos := !pos + span;
    done_ := !done_ + span
  done

let store t addr data =
  iter_spans t addr (Bytes.length data) ~alloc:true (fun chunk off src span ->
      Bytes.blit data src chunk off span)

(* --- deferred writes ------------------------------------------------ *)

let set_pending t ps =
  t.pending <- ps;
  t.lo <- List.fold_left (fun lo p -> min lo p.p_addr) max_int ps;
  t.hi <- List.fold_left (fun hi p -> max hi (p.p_addr + p.p_len)) 0 ps

let apply t p =
  let data = p.draw () in
  if Bytes.length data <> p.p_len then
    invalid_arg "Memory.write_deferred: draw returned the wrong length";
  store t p.p_addr data

let overlaps p addr len = p.p_addr < addr + len && addr < p.p_addr + p.p_len

let rec any_overlap addr len = function
  | [] -> false
  | p :: rest -> overlaps p addr len || any_overlap addr len rest

(* Run every pending write that overlaps [addr, addr+len). *)
let settle t addr len =
  if len > 0 && addr < t.hi && t.lo < addr + len && any_overlap addr len t.pending
  then begin
    let hit, keep = List.partition (fun p -> overlaps p addr len) t.pending in
    set_pending t keep;
    List.iter (apply t) hit
  end

let settle_all t = match t.pending with [] -> () | _ -> settle t t.lo (t.hi - t.lo)

let write_deferred t ~addr ~len draw =
  check t addr len;
  if len > 0 then begin
    (* An older write the new one covers would be overwritten unseen, so
       it is dropped; one it only partly overlaps runs now. *)
    let covered p = addr <= p.p_addr && p.p_addr + p.p_len <= addr + len in
    set_pending t (List.filter (fun p -> not (covered p)) t.pending);
    settle t addr len;
    set_pending t ({ p_addr = addr; p_len = len; draw } :: t.pending)
  end

(* --- access ------------------------------------------------------------ *)

let read t ~addr ~len =
  check t addr len;
  settle t addr len;
  let out = Bytes.create len in
  iter_spans t addr len ~alloc:false (fun chunk off dst span ->
      Bytes.blit chunk off out dst span);
  out

let write t ~addr data =
  let len = Bytes.length data in
  check t addr len;
  settle t addr len;
  store t addr data

let read_byte t ~addr =
  check t addr 1;
  settle t addr 1;
  Bytes.get_uint8 (chunk_ro t (addr lsr chunk_bits)) (addr land (chunk_size - 1))

let write_byte t ~addr v =
  check t addr 1;
  settle t addr 1;
  Bytes.set_uint8 (chunk_rw t (addr lsr chunk_bits)) (addr land (chunk_size - 1)) v

let read_int64 t ~addr =
  let b = read t ~addr ~len:8 in
  Bytes.get_int64_le b 0

let write_int64 t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t ~addr b

let copy ~src ~src_addr ~dst ~dst_addr ~len =
  let data = read src ~addr:src_addr ~len in
  write dst ~addr:dst_addr data

let fill t ~addr ~len c =
  check t addr len;
  settle t addr len;
  iter_spans t addr len ~alloc:true (fun chunk off _ span ->
      Bytes.fill chunk off span c)

let zero t =
  set_pending t [];
  Hashtbl.reset t.chunks

let digest t =
  settle_all t;
  (* Fold chunks in index order so the digest is content-deterministic. *)
  let idxs = Hashtbl.fold (fun k _ acc -> k :: acc) t.chunks [] in
  let idxs = List.sort compare idxs in
  List.fold_left
    (fun h idx ->
      let h = Bg_engine.Fnv.add_int h idx in
      Bg_engine.Fnv.add_bytes h (Hashtbl.find t.chunks idx))
    Bg_engine.Fnv.empty idxs

let touched_bytes t =
  settle_all t;
  Hashtbl.length t.chunks * chunk_size
