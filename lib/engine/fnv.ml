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

(* [x asr (8 * i)] yields the same low byte as the sign-extended int64,
   so this folds exactly the bytes of [add_int64 h (Int64.of_int x)]. *)
let add_int h x =
  if x < 0 then begin
    let h = ref h in
    for i = 0 to 7 do
      h := add_byte !h (x asr (8 * i))
    done;
    !h
  end
  else begin
    let h = ref h and x = ref x and zeros = ref 8 in
    while !x <> 0 do
      h := add_byte !h !x;
      x := !x lsr 8;
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

let hash_int h x = Int64.to_int (add_int h x)

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

  let int a x =
    let h = ref (get a) in
    if x < 0 then
      for i = 0 to 7 do
        h := add_byte !h (x asr (8 * i))
      done
    else begin
      let x = ref x and zeros = ref 8 in
      while !x <> 0 do
        h := add_byte !h !x;
        x := !x lsr 8;
        decr zeros
      done;
      h := Int64.mul !h (Array.unsafe_get prime_pows !zeros)
    end;
    put a !h

  let string a s =
    let h = ref (get a) in
    for i = 0 to String.length s - 1 do
      h := add_byte !h (Char.code (String.unsafe_get s i))
    done;
    put a !h
end

let to_hex h = Printf.sprintf "%016Lx" h
let equal = Int64.equal
let compare = Int64.compare
let pp ppf h = Format.pp_print_string ppf (to_hex h)
