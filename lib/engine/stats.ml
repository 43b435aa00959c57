type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  median : float;
  p99 : float;
}

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let mn = ref xs.(0) and mx = ref xs.(0) and sum = ref 0.0 in
  Array.iter
    (fun x ->
      if x < !mn then mn := x;
      if x > !mx then mx := x;
      sum := !sum +. x)
    xs;
  let mean = !sum /. float_of_int n in
  let var =
    if n < 2 then 0.0
    else begin
      let acc = ref 0.0 in
      Array.iter
        (fun x ->
          let d = x -. mean in
          acc := !acc +. (d *. d))
        xs;
      !acc /. float_of_int (n - 1)
    end
  in
  {
    n;
    min = !mn;
    max = !mx;
    mean;
    stddev = sqrt var;
    median = percentile xs 0.5;
    p99 = percentile xs 0.99;
  }

let spread_percent s =
  if s.min <> 0.0 then (s.max -. s.min) /. s.min *. 100.0
  else if s.max = 0.0 then 0.0 (* all-zero samples: no spread, not 0/0 *)
  else infinity

module Online = struct
  (* Every field is a float, so the record is stored flat and [add]
     updates it in place without boxing; [n] counts exactly up to 2^53. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0.0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let[@inline] update t x =
    t.n <- t.n +. 1.0;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let add t x = update t x

  (* An int argument crosses a call unboxed; the float stays local. *)
  let add_int t n = update t (float_of_int n)

  let n t = int_of_float t.n
  let mean t = t.mean
  let stddev t = if t.n < 2.0 then 0.0 else sqrt (t.m2 /. (t.n -. 1.0))
  let min t = t.min
  let max t = t.max
end

module Histogram = struct
  (* The running sum sits in a one-field float record, which is stored
     flat, so [add] never boxes it. *)
  type sum = { mutable s : float }

  type t = {
    lo : float;
    hi : float;
    counts : int array;
    mutable total : int;
    sum : sum;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 || hi <= lo then invalid_arg "Stats.Histogram.create";
    { lo; hi; counts = Array.make bins 0; total = 0; sum = { s = 0.0 } }

  let[@inline] update t x =
    let bins = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int bins in
    let i = int_of_float (Float.floor ((x -. t.lo) /. width)) in
    let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum.s <- t.sum.s +. x

  let add t x = update t x
  let add_int t n = update t (float_of_int n)

  let counts t = Array.copy t.counts

  let bin_lo t i =
    let bins = Array.length t.counts in
    t.lo +. (float_of_int i *. ((t.hi -. t.lo) /. float_of_int bins))

  let total t = t.total
  let sum t = t.sum.s

  let percentile t p =
    if t.total = 0 then 0.0
    else begin
      let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
      let bins = Array.length t.counts in
      let width = (t.hi -. t.lo) /. float_of_int bins in
      let target = p *. float_of_int t.total in
      let target = if target < 1.0 then 1.0 else target in
      let rec walk i cum =
        if i >= bins then t.hi
        else begin
          let cum' = cum + t.counts.(i) in
          if float_of_int cum' >= target && t.counts.(i) > 0 then begin
            let frac =
              (target -. float_of_int cum) /. float_of_int t.counts.(i)
            in
            bin_lo t i +. (frac *. width)
          end
          else walk (i + 1) cum'
        end
      in
      walk 0 0
    end
end
