(* Host time, normalised for a shared host.

   The benchmark host is shared. A neighbour's memory traffic slows
   every iteration by up to 1.8x, in phases lasting from a second to
   half a minute, so the median of raw times moves by 10-30% from one
   run to the next. A fixed reference kernel, an allocation-free
   streaming write over a 4 MiB buffer that slows about as much as the
   simulator does, is timed at the edges of every measured segment. A
   segment's slowdown is the geometric mean of the kernel times at its
   two edges over [reference_s], and every time measured inside it is
   divided by that slowdown. Reported times are therefore host seconds
   at the reference speed. The kernel lives in the benchmark, so no
   change to the simulator can move it. *)

let now = Unix.gettimeofday

(* The kernel's time on an uncontended host of the kind the benchmark
   was tuned on. *)
let reference_s = 0.0019

(* Off the OCaml heap, so the buffer neither slows nor paces the garbage
   collector. Every page is written, so it adds exactly its size to the
   resident set. *)
let kernel_mb = 4.

let kernel_buf =
  lazy
    (Bigarray.Array1.create Bigarray.int Bigarray.c_layout
       (Float.to_int (kernel_mb *. 1048576.) / 8))

let kernel () =
  let a = Lazy.force kernel_buf in
  let t0 = now () in
  for pass = 1 to 4 do
    for i = 0 to Bigarray.Array1.dim a - 1 do
      Bigarray.Array1.unsafe_set a i pass
    done
  done;
  now () -. t0

type t = {
  mutable edge : float;  (** kernel time at the open segment's start *)
  mutable seg_start : float;
  mutable seg_setup : float;  (** raw seconds in the open segment *)
  mutable seg_run : float;
  mutable raw_wall : float;  (** raw seconds over closed segments *)
  mutable wall : float;  (** normalised seconds over closed segments *)
  mutable setup : float;
  mutable run : float;
  mutable events : int;
}

(* The iteration starts from a fully collected heap: otherwise the point
   of the GC cycle it inherits differs from process to process, and
   decides whether a major slice lands in a setup phase that lasts a
   hundred microseconds. *)
let start () =
  Gc.full_major ();
  let edge = kernel () in
  {
    edge;
    seg_start = now ();
    seg_setup = 0.;
    seg_run = 0.;
    raw_wall = 0.;
    wall = 0.;
    setup = 0.;
    run = 0.;
    events = 0;
  }

let close t =
  let raw = now () -. t.seg_start in
  let edge = kernel () in
  let slowdown = sqrt (t.edge *. edge) /. reference_s in
  t.raw_wall <- t.raw_wall +. raw;
  t.wall <- t.wall +. (raw /. slowdown);
  t.setup <- t.setup +. (t.seg_setup /. slowdown);
  t.run <- t.run +. (t.seg_run /. slowdown);
  t.edge <- edge;
  t.seg_setup <- 0.;
  t.seg_run <- 0.;
  t.seg_start <- now ()

(* A point between two parts of a long iteration. Noise phases last a
   second or more, so a segment shorter than a quarter second is left
   open rather than paying for the kernel. *)
let boundary t = if now () -. t.seg_start >= 0.25 then close t

let setup t f =
  let t0 = now () in
  let v = f () in
  t.seg_setup <- t.seg_setup +. (now () -. t0);
  v

(* The run phase: host seconds plus the simulated events it fired. *)
let run t sim f =
  let e0 = Bg_engine.Sim.events_fired sim in
  let t0 = now () in
  let v = f () in
  t.seg_run <- t.seg_run +. (now () -. t0);
  t.events <- t.events + (Bg_engine.Sim.events_fired sim - e0);
  v

type times = {
  wall_s : float;
  setup_s : float;
  run_s : float;
  events : int;
  slowdown : float;  (** time-weighted over the segments *)
}

let stop t =
  close t;
  {
    wall_s = t.wall;
    setup_s = t.setup;
    run_s = t.run;
    events = t.events;
    slowdown = t.raw_wall /. t.wall;
  }
