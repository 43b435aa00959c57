(* Reference implementation for the noise-walk model test in
   [test_fwk.ml]: the FWK interference model as it was when each pop
   returned an option of a polymorphic-variant tuple and daemon phases
   lived in boxed mutable floats. Kept verbatim apart from this header
   and the daemon type, which is the library's own so the test can hand
   both models the same sets. *)

open Bg_engine

type daemon = Bg_fwk.Noise_model.daemon = {
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

type source = { daemon : daemon; mutable next_at : float }

type t = {
  tick_interval : int;
  tick_cost : int;
  sources : source list;
  rng : Rng.t;
  mutable next_tick : int;
  mutable stolen : int;
}

let create ?(tick_interval = default_tick_interval) ?(tick_cost = default_tick_cost)
    ~daemons ~rng () =
  let sources =
    List.map
      (fun d -> { daemon = d; next_at = Rng.float rng d.period_mean })
      daemons
  in
  { tick_interval; tick_cost; sources; rng; next_tick = tick_interval; stolen = 0 }

let draw rng mean jitter =
  let lo = mean *. (1.0 -. jitter) and hi = mean *. (1.0 +. jitter) in
  lo +. Rng.float rng (max 1.0 (hi -. lo))

type steal = { tick : int; daemon : int }

(* Pop the earliest interference event at or before [deadline], if any.
   Returns its cost, tagged tick-or-daemon, and advances that source. *)
let pop_event t deadline =
  let tick_time = t.next_tick in
  let best_daemon =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some best when best.next_at <= s.next_at -> acc
        | _ -> Some s)
      None t.sources
  in
  let daemon_time =
    match best_daemon with Some s -> int_of_float s.next_at | None -> max_int
  in
  if tick_time <= daemon_time && tick_time <= deadline then begin
    t.next_tick <- t.next_tick + t.tick_interval;
    let cost = t.tick_cost + Rng.int t.rng (t.tick_cost / 4) in
    Some (`Tick, cost)
  end
  else if daemon_time <= deadline then begin
    match best_daemon with
    | None -> None
    | Some s ->
      let d = s.daemon in
      s.next_at <- s.next_at +. draw t.rng d.period_mean d.period_jitter;
      Some (`Daemon, int_of_float (draw t.rng d.cost_mean d.cost_jitter))
    end
  else None

let advance2 t ~start ~work =
  (* Skip events that would have fired while the core was idle: the
     timeline starts at [start]. *)
  if t.next_tick < start then begin
    let missed = (start - t.next_tick) / t.tick_interval in
    t.next_tick <- t.next_tick + ((missed + 1) * t.tick_interval)
  end;
  List.iter
    (fun (s : source) ->
      let d = s.daemon in
      while s.next_at < float_of_int start do
        s.next_at <- s.next_at +. draw t.rng d.period_mean d.period_jitter
      done)
    t.sources;
  let finish = ref (start + work) in
  let tick = ref 0 in
  let daemon = ref 0 in
  let continue = ref true in
  while !continue do
    match pop_event t !finish with
    | Some (kind, cost) ->
      t.stolen <- t.stolen + cost;
      (match kind with
      | `Tick -> tick := !tick + cost
      | `Daemon -> daemon := !daemon + cost);
      finish := !finish + cost
    | None -> continue := false
  done;
  (!finish, { tick = !tick; daemon = !daemon })

let advance t ~start ~work = fst (advance2 t ~start ~work)

let stolen_cycles t = t.stolen

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.tick_interval;
  w_i t.tick_cost;
  w_i t.next_tick;
  w_i t.stolen;
  Buffer.add_int64_le b (Rng.state t.rng);
  w_i (List.length t.sources);
  List.iter
    (fun (s : source) ->
      w_i (String.length s.daemon.daemon_name);
      Buffer.add_string b s.daemon.daemon_name;
      Buffer.add_int64_le b (Int64.bits_of_float s.next_at))
    t.sources
