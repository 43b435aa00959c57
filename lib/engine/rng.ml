type t = { mutable state : int64; seed : int64 }

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed; seed }
let state t = t.state
let seed t = t.seed

let gamma = 0x9e3779b97f4a7c15L

let next_int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let seed_of_string s = Fnv.add_string Fnv.empty s

let split t label =
  let child_seed = mix (Int64.logxor t.seed (seed_of_string label)) in
  create child_seed

let bad_bound bound = invalid_arg (Printf.sprintf "Rng.int: bound %d is not positive" bound)

let int t bound =
  if bound <= 0 then bad_bound bound;
  let x = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  x mod bound

let fill_bytes t b =
  (* [int t 256] per byte: bits 2..9 of each output, with the state in
     a local so the loop allocates nothing *)
  let state = ref t.state in
  for i = 0 to Bytes.length b - 1 do
    state := Int64.add !state gamma;
    Bytes.unsafe_set b i
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical (mix !state) 2) land 255))
  done;
  t.state <- !state

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  (* Box-Muller; reject u1 = 0 to keep log finite. *)
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  -.mean *. log (draw ())
