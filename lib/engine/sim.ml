type outcome = Completed | Reached_limit | Stopped | Halted of string

exception Stalled of { outcome : outcome; fired : int; waiting : int }

type t = {
  mutable clock : Cycles.t;
  queue : (unit -> unit) Event_queue.t;
  trace : Trace.t;
  root_rng : Rng.t;
  streams : (string, Rng.t) Hashtbl.t;
  seed : int64;
  mutable halt_reason : string option;
  mutable fired : int;
}

let create ?(seed = 1L) ?(keep_trace_records = false) () =
  {
    clock = 0;
    queue = Event_queue.create ();
    trace = Trace.create ~keep_records:keep_trace_records ();
    root_rng = Rng.create seed;
    streams = Hashtbl.create 16;
    seed;
    halt_reason = None;
    fired = 0;
  }

let now t = t.clock
let seed t = t.seed

(* The checks raise through a separate function, so the hot path keeps
   no format or boxed argument. *)
let past_time t time =
  invalid_arg (Printf.sprintf "Sim.schedule_at: time %d is before now (%d)" time t.clock)

let negative_delay delta =
  invalid_arg (Printf.sprintf "Sim.schedule_in: negative delay %d" delta)

let schedule_at t time thunk =
  if time < t.clock then past_time t time;
  Event_queue.add t.queue ~time thunk

let schedule_in t delta thunk =
  if delta < 0 then negative_delay delta;
  Event_queue.add t.queue ~time:(t.clock + delta) thunk

let cancel t h = Event_queue.cancel t.queue h
let pending t = Event_queue.length t.queue

(* The time of the event being fired, on whichever simulator fires it.
   Simulated threads run only inside fired events, so this is the
   running thread's own [now]: its timebase, read without a trap. *)
let firing = ref 0

let firing_time () = !firing

let halt t reason = t.halt_reason <- Some reason

let never () = false

(* Top level, with every input an argument, so a run allocates no
   closure; [top_time]/[take_top] allocate nothing per event. [stop] is
   asked before each event, after a pending halt. *)
let rec run_loop t ~until ~max_events ~stop fired =
  match t.halt_reason with
  | Some reason ->
    t.halt_reason <- None;
    Halted reason
  | None ->
    if stop () then Stopped
    else if fired >= max_events then Reached_limit
    else begin
      let time = Event_queue.top_time t.queue in
      if time < 0 then Completed
      else if time > until then begin
        t.clock <- max t.clock until;
        Reached_limit
      end
      else begin
        let thunk = Event_queue.take_top t.queue in
        t.clock <- time;
        firing := time;
        t.fired <- t.fired + 1;
        thunk ();
        run_loop t ~until ~max_events ~stop (fired + 1)
      end
    end

(* [max_int] stands for "no limit" in both: no time exceeds it, and no
   run fires that many events. *)
let run ?(until = max_int) ?(max_events = max_int) ?(stop = never) t =
  run_loop t ~until ~max_events ~stop 0

let trace t = t.trace
let emit t ~label ~value = Trace.emit t.trace ~cycle:t.clock ~label ~value

let rng t name =
  match Hashtbl.find_opt t.streams name with
  | Some stream -> stream
  | None ->
    let stream = Rng.split t.root_rng name in
    Hashtbl.add t.streams name stream;
    stream

let events_fired t = t.fired

(* --- snapshot capture -------------------------------------------------- *)

let w_i64 = Buffer.add_int64_le
let w_i b v = w_i64 b (Int64.of_int v)

let w_s b s =
  w_i b (String.length s);
  Buffer.add_string b s

let capture t b =
  w_i b t.clock;
  w_i64 b t.seed;
  w_i b t.fired;
  w_i64 b (Trace.digest t.trace);
  w_i b (Trace.count t.trace);
  w_i b (Trace.last_cycle t.trace);
  w_i64 b (Rng.state t.root_rng);
  let streams =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.streams []
    |> List.sort compare
  in
  w_i b (List.length streams);
  List.iter
    (fun (name, s) ->
      w_s b name;
      w_i64 b (Rng.state s);
      w_i64 b (Rng.seed s))
    streams;
  (* queue shape: payload thunks are closures, so only (time, seq) pairs
     and the allocation cursor are captured — replay rebuilds the thunks *)
  w_i b (Event_queue.next_seq t.queue);
  let live = Event_queue.live t.queue in
  w_i b (List.length live);
  List.iter
    (fun (time, seq) ->
      w_i b time;
      w_i b seq)
    live
