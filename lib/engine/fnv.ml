type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* Each fold runs over a local [ref] that ocamlopt keeps unboxed, so a
   call allocates only its boxed result. *)
let[@inline] add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* Folding a zero byte only multiplies by [prime]. So the zero bytes
   above a non-negative value's highest non-zero byte fold as one
   multiplication by [prime_pows.(k)], [prime] to the [k]th power. *)
let prime_pows =
  let a = Array.make 9 1L in
  for k = 1 to 8 do
    a.(k) <- Int64.mul a.(k - 1) prime
  done;
  a

let add_int64 h x =
  if Int64.compare x 0L < 0 then begin
    let h = ref h in
    for i = 0 to 7 do
      h := add_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
    done;
    !h
  end
  else begin
    let h = ref h and x = ref x and zeros = ref 8 in
    while not (Int64.equal !x 0L) do
      h := add_byte !h (Int64.to_int !x);
      x := Int64.shift_right_logical !x 8;
      decr zeros
    done;
    Int64.mul !h (Array.unsafe_get prime_pows !zeros)
  end

let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let add_bytes h b = add_string h (Bytes.unsafe_to_string b)

let add_subbytes h b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Fnv.add_subbytes";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := add_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

(* --- interned names ----------------------------------------------------- *)

module Names = struct
  (* Slot [id] of [cats] and [names] is pair [id]; [lookup] maps a pair
     to its id by open addressing, at most half full, [-1] for an empty
     slot. *)
  type t = {
    mutable cats : string array;
    mutable names : string array;
    mutable n : int;
    mutable lookup : int array;
  }

  let create () = { cats = [||]; names = [||]; n = 0; lookup = Array.make 16 (-1) }

  let clear t =
    t.cats <- [||];
    t.names <- [||];
    t.n <- 0;
    t.lookup <- Array.make 16 (-1)

  let hash ~cat ~name = (Hashtbl.hash name + (31 * Hashtbl.hash cat)) land max_int

  let rec probe t slots cat name i =
    let id = Array.unsafe_get slots i in
    if
      id < 0
      || String.equal (Array.unsafe_get t.names id) name
         && String.equal (Array.unsafe_get t.cats id) cat
    then i
    else probe t slots cat name ((i + 1) land (Array.length slots - 1))

  let slot t key cat name =
    let slots = t.lookup in
    probe t slots cat name (key land (Array.length slots - 1))

  let find_hashed t key ~cat ~name = Array.unsafe_get t.lookup (slot t key cat name)
  let find t ~cat ~name = find_hashed t (hash ~cat ~name) ~cat ~name

  let grown a =
    let b = Array.make (max 8 (2 * Array.length a)) "" in
    Array.blit a 0 b 0 (Array.length a);
    b

  let add t key cat name =
    let id = t.n in
    if id = Array.length t.names then begin
      t.cats <- grown t.cats;
      t.names <- grown t.names
    end;
    t.cats.(id) <- cat;
    t.names.(id) <- name;
    t.n <- id + 1;
    if 2 * t.n > Array.length t.lookup then begin
      t.lookup <- Array.make (2 * Array.length t.lookup) (-1);
      for j = 0 to id do
        let cat = t.cats.(j) and name = t.names.(j) in
        t.lookup.(slot t (hash ~cat ~name) cat name) <- j
      done
    end
    else t.lookup.(slot t key cat name) <- id;
    id

  let intern_hashed t key ~cat ~name =
    let id = find_hashed t key ~cat ~name in
    if id >= 0 then id else add t key cat name

  let intern t ~cat ~name = intern_hashed t (hash ~cat ~name) ~cat ~name
  let cat t id = t.cats.(id)
  let name t id = t.names.(id)
  let count t = t.n
end

(* --- labels --------------------------------------------------------------

   For a fixed byte string [s] of length [L], FNV-1a satisfies
   [f_s(h) = h * p^L + C_s (h land 0xff)] (mod 2^64). One step maps [h]
   to [(h lxor b) * p = h * p + ((x lxor b) - x) * p], where [x] is [h]'s
   low byte, since the XOR touches only those 8 bits; and the low byte of
   the result, [((x lxor b) * p) mod 256], depends on [x] alone. So after
   [L] steps [f_s(h) - h * p^L] is a sum of terms fixed by the low-byte
   trajectory, which [x] determines: a 256-entry table [C_s] holds it.
   A label keeps [p^L] and [C_s] in one 257-word table, built the first
   time it is folded, and folds in one load, one multiply and one add.
   Only declared labels enter the process-wide registry; a name built at
   run time stays in the {!Names} table of the collector that met it,
   which drops it on reset, and folds byte by byte. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

module Label = struct
  type t = int

  let registry = Names.create ()

  (* [tables.(id)]: label [id]'s fold table, empty until its first fold *)
  let tables = ref [||]

  let declare ~cat ~name =
    let id = Names.intern registry ~cat ~name in
    if id >= Array.length !tables then begin
      let grown = Array.make (max 64 (2 * id)) Bytes.empty in
      Array.blit !tables 0 grown 0 (Array.length !tables);
      tables := grown
    end;
    id

  let find ~cat ~name =
    let id = Names.find registry ~cat ~name in
    if id >= 0 then Some id else None

  let of_int id =
    if id < 0 || id >= registry.n then invalid_arg (Printf.sprintf "Fnv.Label.of_int: %d" id);
    id

  let cat l = Names.cat registry l
  let name l = Names.name registry l
  let text l = if cat l = "" then name l else cat l ^ name l
  let has_table l = Bytes.length !tables.(l) > 0
  let count () = registry.n
  let all () = List.init registry.n Fun.id

  let build l =
    let cat = cat l and name = name l in
    let len = String.length cat + String.length name in
    let pow = ref 1L in
    for _ = 1 to len do
      pow := Int64.mul !pow prime
    done;
    (* 2,056 bytes: past the minor heap's size limit, so the table goes
       straight to the major heap, and the loops box nothing *)
    let tb = Bytes.create (257 * 8) in
    for x = 0 to 255 do
      let h = ref (Int64.of_int x) in
      for i = 0 to String.length cat - 1 do
        h := add_byte !h (Char.code (String.unsafe_get cat i))
      done;
      for i = 0 to String.length name - 1 do
        h := add_byte !h (Char.code (String.unsafe_get name i))
      done;
      set64 tb (8 * x) (Int64.sub !h (Int64.mul (Int64.of_int x) !pow))
    done;
    set64 tb 2048 !pow;
    !tables.(l) <- tb;
    tb

  let[@inline] apply l h =
    let tb = Array.unsafe_get !tables l in
    let tb = if Bytes.length tb > 0 then tb else build l in
    Int64.add (Int64.mul h (get64 tb 2048)) (get64 tb ((Int64.to_int h land 0xff) lsl 3))

  let code names ~cat ~name =
    let key = Names.hash ~cat ~name in
    let id = Names.find_hashed registry key ~cat ~name in
    if id >= 0 then id else lnot (Names.intern_hashed names key ~cat ~name)

  let code_cat names c = if c >= 0 then cat c else Names.cat names (lnot c)
  let code_name names c = if c >= 0 then name c else Names.name names (lnot c)
end

let[@inline] add_label h l = Label.apply l h

(* The bytes [add_int64 h (Int64.of_int x)] folds, without a loop, so it
   inlines into the record folds: all eight when [x] is negative or wide
   ([x asr (8 * i)] has the sign-extended int64's low byte), otherwise its
   non-zero low bytes and one multiplication for the zero bytes above. *)
let p4 = prime_pows.(4)
let p5 = prime_pows.(5)
let p6 = prime_pows.(6)
let p7 = prime_pows.(7)
let p8 = prime_pows.(8)

let[@inline] fold8 h x =
  let h = add_byte h x in
  let h = add_byte h (x asr 8) in
  let h = add_byte h (x asr 16) in
  let h = add_byte h (x asr 24) in
  let h = add_byte h (x asr 32) in
  let h = add_byte h (x asr 40) in
  let h = add_byte h (x asr 48) in
  add_byte h (x asr 56)

let[@inline] fold_int h x =
  if x land lnot 0xFFFF_FFFF <> 0 then fold8 h x
  else if x < 0x100 then if x = 0 then Int64.mul h p8 else Int64.mul (add_byte h x) p7
  else if x < 0x1_0000 then Int64.mul (add_byte (add_byte h x) (x lsr 8)) p6
  else if x < 0x100_0000 then
    Int64.mul (add_byte (add_byte (add_byte h x) (x lsr 8)) (x lsr 16)) p5
  else Int64.mul (add_byte (add_byte (add_byte (add_byte h x) (x lsr 8)) (x lsr 16)) (x lsr 24)) p4

let add_int h x = fold_int h x
let hash_int h x = Int64.to_int (fold_int h x)

module Acc = struct
  (* The digest as two 32-bit halves in immediate ints. A fold joins them
     into a local the compiler keeps unboxed and splits the result back,
     so it boxes nothing; and making one is a plain allocation, with no
     call into the runtime's C code. *)
  type t = { mutable hi : int; mutable lo : int }

  let[@inline] get a = Int64.logor (Int64.shift_left (Int64.of_int a.hi) 32) (Int64.of_int a.lo)

  let[@inline] put a h =
    a.hi <- Int64.to_int (Int64.shift_right_logical h 32);
    a.lo <- Int64.to_int (Int64.logand h 0xFFFF_FFFFL)

  let reset a = put a empty

  let create () =
    let a = { hi = 0; lo = 0 } in
    reset a;
    a

  let value a = get a
  let int a x = put a (fold_int (get a) x)

  let string a s =
    let h = ref (get a) in
    for i = 0 to String.length s - 1 do
      h := add_byte !h (Char.code (String.unsafe_get s i))
    done;
    put a !h

  let label a l = put a (add_label (get a) l)

  let code a names c =
    if c >= 0 then label a (Label.of_int c)
    else begin
      string a (Names.cat names (lnot c));
      string a (Names.name names (lnot c))
    end

  (* Each record fold below reads and writes [a] once. *)

  let label_int4 a l x1 x2 x3 x4 =
    put a (fold_int (fold_int (fold_int (fold_int (add_label (get a) l) x1) x2) x3) x4)

  let int_label_int3 a x0 l x1 x2 x3 =
    put a (fold_int (fold_int (fold_int (add_label (fold_int (get a) x0) l) x1) x2) x3)

  let int_label_int a x0 l x1 = put a (fold_int (add_label (fold_int (get a) x0) l) x1)
  let int3 a x1 x2 x3 = put a (fold_int (fold_int (fold_int (get a) x1) x2) x3)
end

let to_hex h = Printf.sprintf "%016Lx" h
let equal = Int64.equal
let compare = Int64.compare
let pp ppf h = Format.pp_print_string ppf (to_hex h)
