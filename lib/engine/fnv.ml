type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* Each fold runs over a local [ref] that ocamlopt keeps unboxed, so a
   call allocates only its boxed result. *)
let[@inline] add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let add_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := add_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

(* [x asr (8 * i)] yields the same low byte as the sign-extended int64,
   so this folds exactly the bytes of [add_int64 h (Int64.of_int x)]. *)
let add_int h x =
  let h = ref h in
  for i = 0 to 7 do
    h := add_byte !h (x asr (8 * i))
  done;
  !h

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

let to_hex h = Printf.sprintf "%016Lx" h
let equal = Int64.equal
let compare = Int64.compare
let pp ppf h = Format.pp_print_string ppf (to_hex h)
