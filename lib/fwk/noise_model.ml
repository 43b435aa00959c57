open Bg_engine

type daemon = {
  daemon_name : string;
  period_mean : float;
  period_jitter : float;
  cost_mean : float;
  cost_jitter : float;
}

(* 850 MHz / 1 kHz tick *)
let default_tick_interval = 850_000
let default_tick_cost = 3_000 (* ~3.5 us tick handler *)

(* Calibrated so FWQ over 658,958-cycle quanta shows ~5-6% max spread on
   the heavy cores and ~1.5% on the light one (paper Figs 5-7). *)
let heavy =
  [
    { daemon_name = "kswapd"; period_mean = 85e6; period_jitter = 0.5; cost_mean = 22_000.0; cost_jitter = 0.4 };
    { daemon_name = "pdflush"; period_mean = 42e6; period_jitter = 0.5; cost_mean = 14_000.0; cost_jitter = 0.5 };
    { daemon_name = "events/k"; period_mean = 8.5e6; period_jitter = 0.4; cost_mean = 5_500.0; cost_jitter = 0.4 };
    { daemon_name = "rcu"; period_mean = 4.2e6; period_jitter = 0.3; cost_mean = 2_500.0; cost_jitter = 0.3 };
  ]

let light =
  [
    { daemon_name = "rcu"; period_mean = 4.2e6; period_jitter = 0.3; cost_mean = 2_500.0; cost_jitter = 0.3 };
  ]

let suse_daemon_set ~core = if core = 1 then light else heavy
let quiet_daemon_set ~core:_ = []

(* NFS client writeback: rare but long stalls (tens of microseconds) on
   whichever core the rpciod/flush kthreads land on. *)
let nfs =
  [
    { daemon_name = "rpciod"; period_mean = 120e6; period_jitter = 0.6; cost_mean = 30_000.0; cost_jitter = 0.6 };
    { daemon_name = "nfs-flush"; period_mean = 300e6; period_jitter = 0.7; cost_mean = 80_000.0; cost_jitter = 0.5 };
  ]

let io_node_daemon_set ~core = suse_daemon_set ~core @ nfs

(* Daemon phases sit in a flat float array, so advancing one writes an
   unboxed float. [first] and [first_at] cache the earliest daemon (the
   first listed among equal phases) and its phase truncated to a cycle,
   which is what the walk compares with the tick and the deadline: a
   window with nothing due costs two int compares. *)
type t = {
  tick_interval : int;
  tick_cost : int;
  daemons : daemon array;
  next_at : float array;  (* by daemon *)
  rng : Rng.t;
  mutable next_tick : int;
  mutable stolen : int;
  mutable first : int;  (* -1 with no daemons *)
  mutable first_at : int;  (* [int_of_float next_at.(first)]; [max_int] with no daemons *)
  mutable window_tick : int;  (* the last window's steal, by cause *)
  mutable window_daemon : int;
}

let find_first t =
  let n = Array.length t.next_at in
  if n > 0 then begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if t.next_at.(i) < t.next_at.(!best) then best := i
    done;
    t.first <- !best;
    t.first_at <- int_of_float t.next_at.(!best)
  end

(* A period under one cycle would let the idle catch-up in [advance]
   move a phase by less than a cycle per draw, which never ends over a
   long gap; a non-positive tick interval divides by zero there or
   loops forever. *)
let create ?(tick_interval = default_tick_interval) ?(tick_cost = default_tick_cost)
    ~daemons ~rng () =
  if tick_interval <= 0 then
    invalid_arg
      (Printf.sprintf "Noise_model.create: tick_interval %d is not positive" tick_interval);
  if tick_cost < 0 then
    invalid_arg (Printf.sprintf "Noise_model.create: tick_cost %d is negative" tick_cost);
  List.iter
    (fun d ->
      if not (d.period_mean >= 1.0) then
        invalid_arg
          (Printf.sprintf "Noise_model.create: daemon %s has period %g, under one cycle"
             d.daemon_name d.period_mean))
    daemons;
  let daemons = Array.of_list daemons in
  let t =
    {
      tick_interval;
      tick_cost;
      daemons;
      next_at = Array.map (fun d -> Rng.float rng d.period_mean) daemons;
      rng;
      next_tick = tick_interval;
      stolen = 0;
      first = -1;
      first_at = max_int;
      window_tick = 0;
      window_daemon = 0;
    }
  in
  find_first t;
  t

let[@inline] draw rng mean jitter =
  let lo = mean *. (1.0 -. jitter) and hi = mean *. (1.0 +. jitter) in
  lo +. Rng.float rng (max 1.0 (hi -. lo))

(* Skip the daemon activations that fell while the core was idle, each
   daemon in list order. *)
let catch_up t start =
  let start = float_of_int start in
  for i = 0 to Array.length t.next_at - 1 do
    let d = t.daemons.(i) in
    while t.next_at.(i) < start do
      t.next_at.(i) <- t.next_at.(i) +. draw t.rng d.period_mean d.period_jitter
    done
  done;
  find_first t

(* Charge every interference event at or before [finish], earliest
   first and the tick first on a tie, each one pushing [finish] out. A
   tick's jitter is a quarter of its cost, drawn only when non-zero. *)
let rec walk t finish =
  let tick = t.next_tick in
  if tick <= finish && tick <= t.first_at then begin
    t.next_tick <- tick + t.tick_interval;
    let jitter = t.tick_cost / 4 in
    let cost = t.tick_cost + if jitter > 0 then Rng.int t.rng jitter else 0 in
    t.stolen <- t.stolen + cost;
    t.window_tick <- t.window_tick + cost;
    walk t (finish + cost)
  end
  else if t.first_at <= finish && t.first >= 0 then begin
    let i = t.first in
    let d = t.daemons.(i) in
    t.next_at.(i) <- t.next_at.(i) +. draw t.rng d.period_mean d.period_jitter;
    let cost = int_of_float (draw t.rng d.cost_mean d.cost_jitter) in
    find_first t;
    t.stolen <- t.stolen + cost;
    t.window_daemon <- t.window_daemon + cost;
    walk t (finish + cost)
  end
  else finish

let advance t ~start ~work =
  (* Skip events that would have fired while the core was idle: the
     timeline starts at [start]. *)
  if t.next_tick < start then begin
    let missed = (start - t.next_tick) / t.tick_interval in
    t.next_tick <- t.next_tick + ((missed + 1) * t.tick_interval)
  end;
  if t.first >= 0 && t.next_at.(t.first) < float_of_int start then catch_up t start;
  t.window_tick <- 0;
  t.window_daemon <- 0;
  walk t (start + work)

let window_tick t = t.window_tick
let window_daemon t = t.window_daemon
let stolen_cycles t = t.stolen

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.tick_interval;
  w_i t.tick_cost;
  w_i t.next_tick;
  w_i t.stolen;
  Buffer.add_int64_le b (Rng.state t.rng);
  w_i (Array.length t.daemons);
  Array.iteri
    (fun i d ->
      w_i (String.length d.daemon_name);
      Buffer.add_string b d.daemon_name;
      Buffer.add_int64_le b (Int64.bits_of_float t.next_at.(i)))
    t.daemons
