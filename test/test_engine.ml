(* Tests for Bg_engine: hashing, RNG determinism, event queue ordering,
   simulator run loop, statistics. *)

open Bg_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fnv *)

let test_fnv_known () =
  (* FNV-1a of the empty input is the offset basis. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (Fnv.to_hex Fnv.empty);
  (* Well-known FNV-1a test vector: "a" -> af63dc4c8601ec8c *)
  Alcotest.(check string) "a" "af63dc4c8601ec8c"
    (Fnv.to_hex (Fnv.add_string Fnv.empty "a"))

let test_fnv_order_sensitive () =
  let h1 = Fnv.add_string (Fnv.add_string Fnv.empty "ab") "cd" in
  let h2 = Fnv.add_string (Fnv.add_string Fnv.empty "cd") "ab" in
  Alcotest.(check bool) "order matters" false (Fnv.equal h1 h2)

let test_fnv_int_int64_consistent () =
  let h1 = Fnv.add_int Fnv.empty 12345 in
  let h2 = Fnv.add_int64 Fnv.empty 12345L in
  Alcotest.(check bool) "int matches int64" true (Fnv.equal h1 h2)

(* The byte-at-a-time FNV-1a the simulator's digests were first pinned
   with, kept as the reference the unboxed [Fnv] must match bit for bit. *)
module Fnv_ref = struct
  let prime = 0x100000001b3L

  let add_byte h b =
    let h = Int64.logxor h (Int64.of_int (b land 0xff)) in
    Int64.mul h prime

  let add_int64 h x =
    let rec go h i =
      if i = 8 then h
      else
        let b = Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff in
        go (add_byte h b) (i + 1)
    in
    go h 0

  let add_int h x = add_int64 h (Int64.of_int x)

  let add_string h s =
    let h = ref h in
    String.iter (fun c -> h := add_byte !h (Char.code c)) s;
    !h
end

let prop_fnv_matches_reference =
  let edge_ints = QCheck.Gen.oneofl [ 0; 1; -1; 255; 256; -256; min_int; max_int ] in
  let edge_int64s =
    QCheck.Gen.oneofl [ 0L; 1L; -1L; 0xffL; Int64.min_int; Int64.max_int ]
  in
  (* values whose high bytes are zero, k of the eight in all *)
  let short_ints = QCheck.Gen.(map (fun (k, x) -> x land ((1 lsl (8 * k)) - 1)) (pair (0 -- 7) int)) in
  let short_int64s =
    QCheck.Gen.(
      map
        (fun (k, x) -> Int64.logand x (Int64.pred (Int64.shift_left 1L (8 * k))))
        (pair (0 -- 7) ui64))
  in
  let gen =
    QCheck.Gen.(
      quad
        (frequency [ (1, edge_ints); (3, short_ints); (3, int) ])
        (frequency [ (1, edge_int64s); (3, short_int64s); (3, ui64); (1, map Int64.neg ui64) ])
        (frequency
           [ (1, return ""); (1, return "\xc3\xa9\xff\x00"); (3, string_size (0 -- 40)) ])
        ui64)
  in
  QCheck.Test.make ~name:"fnv equals the byte-at-a-time reference" ~count:500
    (QCheck.make
       ~print:(fun (i, j, s, h) -> Printf.sprintf "(%d, %LdL, %S, %LdL)" i j s h)
       gen)
    (fun (i, j, s, h) ->
      Fnv.add_int h i = Fnv_ref.add_int h i
      && Fnv.add_int64 h j = Fnv_ref.add_int64 h j
      && Fnv.add_string h s = Fnv_ref.add_string h s
      && Fnv.add_bytes h (Bytes.of_string s) = Fnv_ref.add_string h s
      && Fnv.add_subbytes h
           (Bytes.of_string ("ab" ^ s ^ "c"))
           ~pos:2 ~len:(String.length s)
         = Fnv_ref.add_string h s
      && Fnv.add_int Fnv.empty i = Fnv.add_int64 Fnv.empty (Int64.of_int i)
      &&
      let a = Fnv.Acc.create () in
      Fnv.Acc.int a i;
      Fnv.Acc.string a s;
      Fnv.Acc.value a = Fnv_ref.add_string (Fnv_ref.add_int Fnv.empty i) s)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let c1 = Rng.split parent "alpha" in
  let pre = Rng.next_int64 c1 in
  (* Drawing from the parent must not perturb an already-split child's
     identity: re-splitting gives the same child stream. *)
  ignore (Rng.next_int64 parent);
  let c1' = Rng.split parent "alpha" in
  Alcotest.(check int64) "split is stable" pre (Rng.next_int64 c1')

let test_rng_split_distinct () =
  let parent = Rng.create 7L in
  let a = Rng.next_int64 (Rng.split parent "a") in
  let b = Rng.next_int64 (Rng.split parent "b") in
  Alcotest.(check bool) "labels differ" true (a <> b)

let test_rng_int_bounds () =
  let t = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int t 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

(* A bound that is not positive is a caller's error, named in the
   message, and draws nothing from the stream. *)
let test_rng_int_rejects_bad_bound () =
  let t = Rng.create 3L in
  let before = Rng.state t in
  Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound 0 is not positive") (fun () ->
      ignore (Rng.int t 0));
  Alcotest.check_raises "negative" (Invalid_argument "Rng.int: bound -7 is not positive")
    (fun () -> ignore (Rng.int t (-7)));
  Alcotest.(check int64) "no draw" before (Rng.state t)

let test_rng_float_bounds () =
  let t = Rng.create 4L in
  for _ = 1 to 1000 do
    let x = Rng.float t 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_gaussian_moments () =
  let t = Rng.create 5L in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.gaussian t ~mu:10.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean near 10" true
    (Float.abs (Stats.Online.mean acc -. 10.0) < 0.1);
  Alcotest.(check bool) "sigma near 2" true
    (Float.abs (Stats.Online.stddev acc -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let t = Rng.create 6L in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.exponential t ~mean:5.0)
  done;
  Alcotest.(check bool) "mean near 5" true
    (Float.abs (Stats.Online.mean acc -. 5.0) < 0.2)

(* ------------------------------------------------------------------ *)
(* Cycles *)

let test_cycles_roundtrip () =
  check_int "1us" 850 (Cycles.of_us 1.0);
  check_float "us back" 1.0 (Cycles.to_us 850);
  check_int "1s" 850_000_000 (Cycles.of_seconds 1.0)

let test_cycles_pp_units () =
  let s c = Format.asprintf "%a" Cycles.pp c in
  Alcotest.(check string) "ns" "118ns" (s 100);
  Alcotest.(check string) "us" "1.18us" (s 1_000);
  Alcotest.(check string) "ms" "1.18ms" (s 1_000_000);
  Alcotest.(check string) "s" "1.18s" (s 1_000_000_000)

let test_sim_max_events () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule_at sim i (fun () -> incr fired))
  done;
  (match Sim.run ~max_events:4 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  check_int "only four" 4 !fired;
  ignore (Sim.run sim);
  check_int "rest later" 10 !fired

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:30 "c");
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  let order = List.init 3 (fun _ -> Option.get (Event_queue.pop q)) in
  Alcotest.(check (list (pair int string)))
    "sorted" [ (10, "a"); (20, "b"); (30, "c") ] order

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:5 "first");
  ignore (Event_queue.add q ~time:5 "second");
  ignore (Event_queue.add q ~time:5 "third");
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "dead" in
  ignore (Event_queue.add q ~time:2 "live");
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  check_int "one live" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string))) "live pops" (Some (2, "live"))
    (Event_queue.pop q);
  check_int "empty" 0 (Event_queue.length q);
  check_int "no top" (-1) (Event_queue.top_time q)

let test_queue_cancel_after_fire () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "x" in
  ignore (Event_queue.pop q);
  Event_queue.cancel q h;
  (* A later add must not be affected by the stale cancel. *)
  ignore (Event_queue.add q ~time:3 "y");
  check_int "length" 1 (Event_queue.length q)

(* A handle names its slot and its sequence number: once the event fired
   and a later event took over the slot, cancelling the old handle must
   leave the new event alone. *)
let test_queue_cancel_after_slot_reuse () =
  let q = Event_queue.create () in
  let old = Event_queue.add q ~time:1 "old" in
  ignore (Event_queue.pop q);
  let fresh = Event_queue.add q ~time:2 "fresh" in
  Alcotest.(check bool) "distinct handles" true (old <> fresh);
  Event_queue.cancel q old;
  check_int "fresh still live" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string))) "fresh pops" (Some (2, "fresh"))
    (Event_queue.pop q);
  (* the same after a cancel: the slot's next event survives the stale handle *)
  let dead = Event_queue.add q ~time:3 "dead" in
  Event_queue.cancel q dead;
  ignore (Event_queue.pop q);
  let next = Event_queue.add q ~time:4 "next" in
  Event_queue.cancel q dead;
  check_int "next still live" 1 (Event_queue.length q);
  Event_queue.cancel q next;
  check_int "next cancelled by its own handle" 0 (Event_queue.length q)

let test_queue_peek_skips_cancelled () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "dead" in
  ignore (Event_queue.add q ~time:9 "live");
  Event_queue.cancel q h;
  check_int "peek" 9 (Event_queue.top_time q);
  check_int "peek removes nothing" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string))) "live pops" (Some (9, "live"))
    (Event_queue.pop q)

let drain q =
  let rec go acc = match Event_queue.pop q with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

(* 64 ranks in lockstep, as under CNK: each fires every cycle and
   schedules its next step one cycle on, so every event after the first
   cycle joins a chain. They must fire rank by rank within each cycle. *)
let test_queue_lockstep_ranks () =
  let ranks = 64 and cycles = 1_000 in
  let q = Event_queue.create () in
  for r = 0 to ranks - 1 do
    ignore (Event_queue.add q ~time:0 r)
  done;
  for k = 0 to (ranks * cycles) - 1 do
    let time = Event_queue.top_time q in
    let r = Event_queue.take_top q in
    if time <> k / ranks || r <> k mod ranks then
      Alcotest.failf "event %d: rank %d at %d, want rank %d at %d" k r time (k mod ranks)
        (k / ranks);
    ignore (Event_queue.add q ~time:(time + 1) r)
  done;
  check_int "live" ranks (Event_queue.length q);
  check_int "next_seq" (ranks * (cycles + 1)) (Event_queue.next_seq q);
  Alcotest.(check (list (pair int int)))
    "shape" (List.init ranks (fun r -> (cycles, (ranks * cycles) + r)))
    (Event_queue.live q);
  Alcotest.(check (list (pair int int)))
    "last cycle" (List.init ranks (fun r -> (cycles, r)))
    (drain q)

(* A cancelled chain tail cannot take an append, so the next event at
   its time starts a new chain; it still fires after every earlier event
   at that time, and later events join it. *)
let test_queue_cancelled_tail () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:5 "a");
  ignore (Event_queue.add q ~time:5 "b");
  let c = Event_queue.add q ~time:5 "c" in
  ignore (Event_queue.add q ~time:3 "early");
  Event_queue.cancel q c;
  ignore (Event_queue.add q ~time:5 "d");
  ignore (Event_queue.add q ~time:5 "e");
  Alcotest.(check (list (pair int int)))
    "live" [ (3, 3); (5, 0); (5, 1); (5, 4); (5, 5) ] (Event_queue.live q);
  Alcotest.(check (list (pair int string)))
    "order" [ (3, "early"); (5, "a"); (5, "b"); (5, "d"); (5, "e") ] (drain q)

(* Times 10 and 74 share a chain-table entry: added alternately, each
   add evicts the other's chain, and both times still fire in order. *)
let test_queue_table_collision () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:(if i mod 2 = 0 then 74 else 10) i)
  done;
  Alcotest.(check (list (pair int int)))
    "order" [ (10, 1); (10, 3); (10, 5); (10, 7); (10, 9); (74, 0); (74, 2); (74, 4); (74, 6); (74, 8) ]
    (drain q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:t t)) times;
      let rec drain last acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) ->
          if t < last then failwith "out of order";
          drain t (t :: acc)
      in
      let popped = drain 0 [] in
      List.length popped = List.length times)

(* Model-based check: [Event_queue] against a sorted list of live
   (time, seq) pairs driven by the same ops. Each add lands at or after
   the last popped time, as [Sim] schedules: mostly a few cycles on, so
   ties and chains are common, and sometimes 64k cycles further, where
   its time shares a chain-table entry with a nearer one. Now and then an
   add goes to an absolute time in 0-6, which may lie before the last
   popped time: [Sim] never does that, but the queue allows it. Cancels pick
   any handle ever issued, so they hit live, fired and already-cancelled
   events alike, chain tails among them. *)
type queue_op = Add of int | Add_at of int | Cancel of int | Pop | Peek | Top | Take

let show_queue_op = function
  | Add t -> Printf.sprintf "Add %d" t
  | Add_at t -> Printf.sprintf "Add_at %d" t
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Pop -> "Pop"
  | Peek -> "Peek"
  | Top -> "Top"
  | Take -> "Take"

let prop_queue_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun t -> Add t) (int_bound 6));
          (1, map (fun (k, t) -> Add ((64 * k) + t)) (pair (1 -- 3) (int_bound 2)));
          (1, map (fun t -> Add_at t) (int_bound 6));
          (3, map (fun k -> Cancel k) nat);
          (2, return Pop);
          (1, return Peek);
          (1, return Top);
          (2, return Take);
        ])
  in
  QCheck.Test.make ~name:"event_queue matches a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
       QCheck.Gen.(list_size (0 -- 2000) gen_op))
    (fun ops ->
      let q = Event_queue.create () in
      (* model: live (time, seq) pairs, sorted; payload = seq *)
      let model = ref [] and next = ref 0 and handles = Hashtbl.create 64 in
      (* the last popped time, below which [Sim] never schedules *)
      let floor = ref 0 in
      let add time =
        let h = Event_queue.add q ~time !next in
        model := List.merge compare !model [ (time, !next) ];
        Hashtbl.replace handles !next h;
        incr next
      in
      let pop_model () =
        match !model with
        | [] -> None
        | ((time, _) as top) :: rest ->
          model := rest;
          floor := time;
          Some top
      in
      List.iter
        (fun op ->
          (match op with
          | Add delta -> add (!floor + delta)
          | Add_at time -> add time
          | Cancel k ->
            if !next > 0 then begin
              let seq = k mod !next in
              Event_queue.cancel q (Hashtbl.find handles seq);
              model := List.filter (fun (_, s) -> s <> seq) !model
            end
          | Pop ->
            if Event_queue.pop q <> pop_model () then failwith "pop differs"
          | Peek ->
            (* a peek removes nothing: asked twice, it answers the same *)
            let want = match !model with [] -> -1 | (t, _) :: _ -> t in
            if Event_queue.top_time q <> want || Event_queue.top_time q <> want then
              failwith "a second top_time differs"
          | Top ->
            let want = match !model with [] -> -1 | (t, _) :: _ -> t in
            if Event_queue.top_time q <> want then failwith "top_time differs"
          | Take -> (
            match pop_model () with
            | None -> (
              match Event_queue.take_top q with
              | _ -> failwith "take_top on an empty queue returned"
              | exception Invalid_argument _ -> ())
            | Some (_, seq) ->
              if Event_queue.take_top q <> seq then failwith "take_top differs"));
          if Event_queue.length q <> List.length !model then failwith "length differs";
          if (Event_queue.length q = 0) <> (!model = []) then failwith "emptiness differs";
          if Event_queue.next_seq q <> !next then failwith "next_seq differs";
          if Event_queue.live q <> !model then failwith "live differs")
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_ordering_and_clock () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim 100 (fun () -> log := ("b", Sim.now sim) :: !log));
  ignore (Sim.schedule_at sim 50 (fun () -> log := ("a", Sim.now sim) :: !log));
  (match Sim.run sim with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check (list (pair string int)))
    "events in order" [ ("a", 50); ("b", 100) ] (List.rev !log);
  check_int "clock at last event" 100 (Sim.now sim)

let test_sim_schedule_from_event () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore
    (Sim.schedule_at sim 10 (fun () ->
         ignore (Sim.schedule_in sim 5 (fun () -> fired := Sim.now sim))));
  ignore (Sim.run sim);
  check_int "chained event" 15 !fired

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_at sim 1000 (fun () -> fired := true));
  (match Sim.run ~until:500 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  Alcotest.(check bool) "not fired" false !fired;
  check_int "clock advanced to limit" 500 (Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check bool) "fires later" true !fired

(* Scheduling into the past or with a negative delay is a caller's
   error: a typed [Invalid_argument] naming the value, and nothing
   scheduled. *)
let test_sim_schedule_at_rejects_past () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim 50 ignore);
  ignore (Sim.run sim);
  Alcotest.check_raises "before now"
    (Invalid_argument "Sim.schedule_at: time 49 is before now (50)") (fun () ->
      ignore (Sim.schedule_at sim 49 ignore));
  check_int "nothing scheduled" 0 (Sim.pending sim);
  ignore (Sim.schedule_at sim 50 ignore);
  check_int "now itself is fine" 1 (Sim.pending sim)

let test_sim_schedule_in_rejects_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule_in: negative delay -3")
    (fun () -> ignore (Sim.schedule_in sim (-3) ignore));
  check_int "nothing scheduled" 0 (Sim.pending sim);
  ignore (Sim.schedule_in sim 0 ignore);
  check_int "zero delay is fine" 1 (Sim.pending sim)

let test_sim_halt () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim 1 (fun () -> Sim.halt sim "scan"));
  ignore (Sim.schedule_at sim 2 (fun () -> Alcotest.fail "must not run"));
  match Sim.run sim with
  | Sim.Halted reason -> Alcotest.(check string) "reason" "scan" reason
  | _ -> Alcotest.fail "expected halt"

let test_sim_until_cancelled_head () =
  (* A cancelled event at the head must not stop or advance the run:
     the first live event decides. *)
  let sim = Sim.create () in
  let log = ref [] in
  let dead = Sim.schedule_at sim 10 (fun () -> Alcotest.fail "cancelled event fired") in
  ignore (Sim.schedule_at sim 20 (fun () -> log := Sim.now sim :: !log));
  ignore (Sim.schedule_at sim 90 (fun () -> log := Sim.now sim :: !log));
  Sim.cancel sim dead;
  (match Sim.run ~until:50 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  Alcotest.(check (list int)) "live event before the limit fired" [ 20 ] !log;
  check_int "clock at limit" 50 (Sim.now sim);
  (* cancelled head beyond the limit: the clock still stops at [until] *)
  let late = Sim.schedule_at sim 60 (fun () -> Alcotest.fail "cancelled event fired") in
  Sim.cancel sim late;
  (match Sim.run ~until:70 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  check_int "clock at second limit" 70 (Sim.now sim);
  check_int "one pending" 1 (Sim.pending sim);
  (* an [until] behind the clock leaves the clock alone *)
  (match Sim.run ~until:30 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  check_int "clock never moves back" 70 (Sim.now sim);
  (match Sim.run sim with Sim.Completed -> () | _ -> Alcotest.fail "expected completion");
  Alcotest.(check (list int)) "rest fired" [ 90; 20 ] !log;
  check_int "clock at last event" 90 (Sim.now sim)

let test_sim_until_inclusive () =
  (* an event exactly at [until] fires; the clock is left at it *)
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule_at sim 40 (fun () -> incr fired));
  (match Sim.run ~until:40 sim with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  check_int "fired at the limit" 1 !fired;
  check_int "clock" 40 (Sim.now sim)

let test_sim_max_events_per_call () =
  (* the budget counts events fired by this call, not since creation *)
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule_at sim i (fun () -> incr fired))
  done;
  for round = 1 to 2 do
    (match Sim.run ~max_events:3 sim with
    | Sim.Reached_limit -> ()
    | _ -> Alcotest.fail "expected limit");
    check_int "three more" (3 * round) !fired;
    check_int "clock at last fired" (3 * round) (Sim.now sim)
  done;
  (match Sim.run ~max_events:0 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "zero budget is a limit");
  check_int "none fired" 6 !fired;
  (match Sim.run ~max_events:4 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "budget met as the queue drains is still a limit");
  (match Sim.run ~max_events:4 sim with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  check_int "all fired" 10 !fired;
  check_int "events_fired across calls" 10 (Sim.events_fired sim)

let test_sim_halt_resumes () =
  (* a halt from inside a thunk stops after that thunk; the next run
     resumes with the following event *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule_at sim 5 (fun () ->
         log := 5 :: !log;
         Sim.halt sim "stop"));
  ignore (Sim.schedule_at sim 5 (fun () -> log := 6 :: !log));
  (match Sim.run ~until:100 ~max_events:100 sim with
  | Sim.Halted "stop" -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check (list int)) "halting thunk ran alone" [ 5 ] !log;
  check_int "clock at the halting event" 5 (Sim.now sim);
  (match Sim.run sim with Sim.Completed -> () | _ -> Alcotest.fail "expected completion");
  Alcotest.(check (list int)) "resumed" [ 6; 5 ] !log

let test_sim_max_int_event () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_at sim max_int (fun () -> fired := true));
  (match Sim.run sim with Sim.Completed -> () | _ -> Alcotest.fail "expected completion");
  Alcotest.(check bool) "fired" true !fired;
  check_int "clock" max_int (Sim.now sim);
  (match Sim.run ~max_events:1 sim with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "a one-event run on an empty queue completes");
  check_int "nothing fired on an empty queue" 1 (Sim.events_fired sim)

(* [Sim.run ~stop] against the loop drivers used to write around a
   one-event step: test the condition, fire one event, repeat. Events
   re-arm themselves up to four more times, so a run schedules as it
   fires; [stop] watches a counter the events bump. *)
let stop_label = Trace.label "stop.prop"

let prop_run_stop_matches_single_events =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (0 -- 40) (triple (int_bound 200) (int_bound 4) (int_bound 50)))
        (int_bound 120))
  in
  QCheck.Test.make ~name:"Sim.run ~stop = one-event runs until the condition" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair (list (triple int int int)) int) gen)
    (fun (events, threshold) ->
      let build () =
        let sim = Sim.create () and count = ref 0 in
        let rec arm time k delay =
          ignore
            (Sim.schedule_at sim time (fun () ->
                 incr count;
                 Sim.emit sim ~label:stop_label ~value:((!count * 31) + k);
                 if k > 0 then arm (Sim.now sim + delay) (k - 1) delay))
        in
        List.iter (fun (time, k, delay) -> arm time k delay) events;
        (sim, count)
      in
      let sim, count = build () in
      let outcome = Sim.run ~stop:(fun () -> !count >= threshold) sim in
      let ref_sim, ref_count = build () in
      let rec reference () =
        if !ref_count >= threshold then Sim.Stopped
        else
          match Sim.run ~max_events:1 ref_sim with
          | Sim.Completed -> Sim.Completed
          | _ -> reference ()
      in
      let ref_outcome = reference () in
      outcome = ref_outcome
      && !count = !ref_count
      && Sim.events_fired sim = Sim.events_fired ref_sim
      && Sim.now sim = Sim.now ref_sim
      && Fnv.equal (Trace.digest (Sim.trace sim)) (Trace.digest (Sim.trace ref_sim)))

let test_sim_rng_stream_persistent () =
  let sim = Sim.create ~seed:9L () in
  let a = Rng.next_int64 (Sim.rng sim "noise") in
  let b = Rng.next_int64 (Sim.rng sim "noise") in
  Alcotest.(check bool) "stream advances" true (a <> b)

let test_trace_record_retention () =
  let a = Trace.label "a" and b = Trace.label "b" in
  let t = Trace.create ~keep_records:true () in
  Trace.emit t ~cycle:5 ~label:a ~value:1;
  Trace.emit t ~cycle:9 ~label:b ~value:2;
  check_int "count" 2 (Trace.count t);
  check_int "last cycle" 9 (Trace.last_cycle t);
  (match Trace.records t with
  | [ r1; r2 ] ->
    Alcotest.(check string) "order preserved" "a" r1.Trace.label;
    check_int "cycle kept" 9 r2.Trace.cycle
  | _ -> Alcotest.fail "expected two records");
  (* digest matches a record-free trace fed the same events *)
  let t2 = Trace.create () in
  Trace.emit t2 ~cycle:5 ~label:a ~value:1;
  Trace.emit t2 ~cycle:9 ~label:b ~value:2;
  Alcotest.(check bool) "digest independent of retention" true
    (Fnv.equal (Trace.digest t) (Trace.digest t2));
  Alcotest.(check (list (pair int string))) "no records kept by default" []
    (List.map (fun r -> (r.Trace.cycle, r.Trace.label)) (Trace.records t2))

let test_sim_trace_digest_reproducible () =
  let tick = Trace.label "tick" in
  let run_once () =
    let sim = Sim.create ~seed:5L () in
    for i = 1 to 50 do
      ignore
        (Sim.schedule_at sim (i * 10) (fun () ->
             Sim.emit sim ~label:tick ~value:i))
    done;
    ignore (Sim.run sim);
    Trace.digest (Sim.trace sim)
  in
  Alcotest.(check bool) "identical digests" true
    (Fnv.equal (run_once ()) (run_once ()))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_int "n" 5 s.Stats.n;
  check_float "mean" 3.0 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_float "median" 3.0 s.Stats.median;
  check_float "stddev" (sqrt 2.5) s.Stats.stddev

let test_stats_spread () =
  let s = Stats.summarize [| 100.0; 105.0 |] in
  check_float "spread%" 5.0 (Stats.spread_percent s)

let test_stats_spread_zero_min () =
  (* all-zero samples (an idle FTQ window) have no spread, not NaN *)
  check_float "all zero" 0.0 (Stats.spread_percent (Stats.summarize [| 0.0; 0.0; 0.0 |]));
  let s = Stats.summarize [| 0.0; 4.0 |] in
  Alcotest.(check bool) "zero min, nonzero max" true (Stats.spread_percent s = infinity)

let test_trace_iter_matches_records () =
  let t = Trace.create ~keep_records:true () in
  for i = 1 to 5 do
    Trace.emit t ~cycle:(i * 3) ~label:(Trace.label (Printf.sprintf "e%d" i)) ~value:i
  done;
  let seen = ref [] in
  Trace.iter t (fun r -> seen := r :: !seen);
  Alcotest.(check bool) "iter visits records oldest-first" true
    (List.rev !seen = Trace.records t);
  (* iter on a record-free trace visits nothing *)
  let bare = Trace.create () in
  Trace.emit bare ~cycle:1 ~label:(Trace.label "x") ~value:0;
  Trace.iter bare (fun _ -> Alcotest.fail "no records should be retained")

let test_stats_online_matches_batch () =
  let xs = Array.init 1000 (fun i -> sin (float_of_int i)) in
  let s = Stats.summarize xs in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check (float 1e-9)) "mean" s.Stats.mean (Stats.Online.mean o);
  Alcotest.(check (float 1e-9)) "stddev" s.Stats.stddev (Stats.Online.stddev o)

let test_stats_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.9; 9.5; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  check_int "bin0 (incl clamped low)" 2 counts.(0);
  check_int "bin1" 2 counts.(1);
  check_int "bin9 (incl clamped high)" 2 counts.(9);
  check_int "total" 6 (Stats.Histogram.total h)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let s = Stats.summarize arr in
      v >= s.Stats.min -. 1e-9 && v <= s.Stats.max +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Allocation guards: the per-event path must stay unboxed. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_alloc name ~calls ~per_call words =
  if words > float_of_int (calls * per_call) then
    Alcotest.failf "%s: %.0f words over %d calls, more than %d per call" name words calls
      per_call

let test_fnv_alloc () =
  let calls = 10_000 in
  let label = "cio.pwrite.span!" in
  let x = Sys.opaque_identity 0x0123_4567_89ab_cdefL in
  let h = ref Fnv.empty in
  (* a boxed int64 is 3 words: header, custom-ops pointer, payload *)
  check_alloc "add_int" ~calls ~per_call:3
    (minor_words (fun () ->
         for i = 1 to calls do
           h := Fnv.add_int !h i
         done));
  check_alloc "add_int64" ~calls ~per_call:3
    (minor_words (fun () ->
         for _ = 1 to calls do
           h := Fnv.add_int64 !h x
         done));
  check_alloc "add_string" ~calls ~per_call:3
    (minor_words (fun () ->
         for _ = 1 to calls do
           h := Fnv.add_string !h label
         done));
  ignore (Sys.opaque_identity !h)

(* Both forms of [Sim.run] fire 10,000 events with nothing boxed per
   event; a [stop] predicate costs only its [Some] box, once per call. *)
let test_sim_run_alloc () =
  let n = 10_000 in
  let fired = ref 0 in
  let thunk () = incr fired in
  let loaded () =
    let sim = Sim.create () in
    for i = 1 to n do
      ignore (Sim.schedule_at sim (i mod 97) thunk)
    done;
    sim
  in
  let sim = loaded () in
  let words = minor_words (fun () -> ignore (Sys.opaque_identity (Sim.run sim))) in
  check_int "all fired" n !fired;
  if words > 0. then Alcotest.failf "Sim.run allocated %.0f words over %d events" words n;
  fired := 0;
  let sim = loaded () in
  let stop () = !fired = n in
  let outcome = ref Sim.Completed in
  let words = minor_words (fun () -> outcome := Sys.opaque_identity (Sim.run ~stop sim)) in
  check_int "all fired under stop" n !fired;
  check_bool "stopped, not drained" true (!outcome = Sim.Stopped);
  check_alloc "Sim.run ~stop" ~calls:1 ~per_call:2 words

(* An event handle is an immediate int, so scheduling a thunk built
   beforehand allocates nothing once the queue has grown, whether the
   event starts a heap entry or joins the chain of its time. *)
let test_sim_schedule_alloc () =
  let n = 10_000 in
  let sim = Sim.create () in
  let thunk () = () in
  for i = 1 to n do
    ignore (Sim.schedule_at sim i thunk)
  done;
  ignore (Sim.run sim);
  let base = Sim.now sim in
  let words =
    minor_words (fun () ->
        for i = 1 to n do
          ignore (Sys.opaque_identity (Sim.schedule_at sim (base + (i / 2)) thunk))
        done)
  in
  check_int "all scheduled" n (Sim.pending sim);
  if words > 0. then Alcotest.failf "Sim.schedule_at allocated %.0f words over %d calls" words n

(* A trace that keeps no records folds each emit into its digest in
   place, with nothing boxed. *)
let test_trace_emit_alloc () =
  let n = 10_000 in
  let t = Trace.create ~keep_records:false () in
  let label = Trace.label "ciod.served" in
  let words =
    minor_words (fun () ->
        for i = 1 to n do
          Trace.emit t ~cycle:(i * 7) ~label ~value:(i - 5_000)
        done)
  in
  check_int "all counted" n (Trace.count t);
  if words > 0. then Alcotest.failf "Trace.emit allocated %.0f words over %d emits" words n

(* The digest folds an int value as the eight bytes of its [int64], as
   it did when values were [int64]: negative, zero, small and extreme. *)
let test_trace_digest_folds_int64_bytes () =
  let values = [ 0; 1; 255; 256; -1; -1_000_003; 64_000_123; max_int; min_int ] in
  let t = Trace.create ~keep_records:true () in
  let e = Trace.label "e" in
  let expect =
    List.fold_left
      (fun (h, cycle) v ->
        Trace.emit t ~cycle ~label:e ~value:v;
        let h = Fnv.add_int64 (Fnv.add_string (Fnv.add_int h cycle) "e") (Int64.of_int v) in
        (h, cycle + 3))
      (Fnv.empty, 0) values
    |> fst
  in
  Alcotest.(check string) "digest" (Fnv.to_hex expect) (Fnv.to_hex (Trace.digest t));
  Alcotest.(check (list int64)) "records hold the int64 values"
    (List.map Int64.of_int values)
    (List.map (fun r -> r.Trace.value) (Trace.records t))

(* ------------------------------------------------------------------ *)
(* Labels: a declared label folds through its table in constant time, a
   collector's run-time name (a negative label code) byte by byte; both
   must fold exactly the bytes of [cat ^ name]. *)

(* Every byte value, NUL and bytes >= 0x80 among them. *)
let label_text = QCheck.Gen.(string_size ~gen:char (0 -- 64))

(* [fold a] against [Acc.string] over [text], from [h] with its low byte
   replaced by each of the 256 values. *)
let check_fold ~what h text fold =
  for x = 0 to 255 do
    let h = Int64.logor (Int64.logand h (Int64.lognot 0xffL)) (Int64.of_int x) in
    let a = Fnv.Acc.create () and b = Fnv.Acc.create () in
    Fnv.Acc.int a (Int64.to_int h);
    Fnv.Acc.int b (Int64.to_int h);
    fold a;
    Fnv.Acc.string b text;
    if not (Fnv.equal (Fnv.Acc.value a) (Fnv.Acc.value b)) then
      QCheck.Test.fail_reportf "%s %S: state %Lx folds to %s, bytes give %s" what text h
        (Fnv.to_hex (Fnv.Acc.value a))
        (Fnv.to_hex (Fnv.Acc.value b))
  done

let check_label_fold ~what h l =
  let text = Fnv.Label.cat l ^ Fnv.Label.name l in
  for x = 0 to 255 do
    let h = Int64.logor (Int64.logand h (Int64.lognot 0xffL)) (Int64.of_int x) in
    let want = Fnv.add_string h text and got = Fnv.add_label h l in
    if not (Fnv.equal want got) then
      QCheck.Test.fail_reportf "%s %S: state %Lx folds to %s, bytes give %s" what text h
        (Fnv.to_hex got) (Fnv.to_hex want)
  done;
  check_fold ~what h text (fun a -> Fnv.Acc.label a l)

let prop_label_fold =
  QCheck.Test.make ~name:"label fold equals the byte fold of cat ^ name" ~count:300
    (QCheck.make
       ~print:(fun (h, c, n) -> Printf.sprintf "(%LdL, %S, %S)" h c n)
       QCheck.Gen.(triple ui64 label_text label_text))
    (fun (h, cat, name) ->
      let declared = Fnv.Label.declare ~cat ~name in
      check_label_fold ~what:"declared" h declared;
      if not (Fnv.Label.has_table declared) then QCheck.Test.fail_report "no table after a fold";
      (* a pair nobody declares: a collector's own name, folded byte by
         byte, which leaves the registry as it was *)
      let before = Fnv.Label.count () and names = Fnv.Names.create () in
      let cat = cat ^ "\000undeclared" in
      let c = Fnv.Label.code names ~cat ~name in
      if c >= 0 || Fnv.Label.count () <> before then
        QCheck.Test.fail_report "an undeclared pair entered the registry";
      check_fold ~what:"undeclared" h (cat ^ name) (fun a -> Fnv.Acc.code a names c);
      check_fold ~what:"declared code" h (Fnv.Label.text declared) (fun a ->
          Fnv.Acc.code a names (Fnv.Label.code names ~cat:(Fnv.Label.cat declared) ~name));
      true)

let test_declared_labels_fold () =
  (* the library declares its labels at module initialisation *)
  List.iter
    (fun (cat, name) ->
      if Fnv.Label.find ~cat ~name = None then Alcotest.failf "%s/%s is not declared" cat name)
    [ ("syscall", "pwrite.entry"); ("cio", "service.pwrite"); ("", "torus.arrival");
      ("", "cnk.fship"); ("cio", "transit_request") ];
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun l ->
      for _ = 1 to 4 do
        let h = Random.State.int64 rng Int64.max_int in
        check_label_fold ~what:"library" h l
      done)
    (Fnv.Label.all ())

(* The record folds fold exactly their fields, one call per field. *)
let prop_record_folds =
  let ints =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ 0; -1; 255; 256; min_int; max_int ]); (3, small_signed_int); (3, int) ])
  in
  let gen = QCheck.Gen.(pair label_text (array_size (return 6) ints)) in
  QCheck.Test.make ~name:"record folds equal their per-field folds" ~count:300
    (QCheck.make ~print:(fun (n, xs) ->
         Printf.sprintf "(%S, [|%s|])" n
           (String.concat "; " (Array.to_list (Array.map string_of_int xs)))) gen)
    (fun (name, x) ->
      let l = Fnv.Label.declare ~cat:"rec" ~name in
      let same what fold_one fold_fields =
        let a = Fnv.Acc.create () and b = Fnv.Acc.create () in
        Fnv.Acc.int a x.(5);
        Fnv.Acc.int b x.(5);
        fold_one a;
        fold_fields b;
        if not (Fnv.equal (Fnv.Acc.value a) (Fnv.Acc.value b)) then
          QCheck.Test.fail_reportf "%s differs" what
      in
      let ints b = Array.iter (Fnv.Acc.int b) in
      same "label_int4"
        (fun a -> Fnv.Acc.label_int4 a l x.(0) x.(1) x.(2) x.(3))
        (fun b ->
          Fnv.Acc.string b (Fnv.Label.text l);
          ints b [| x.(0); x.(1); x.(2); x.(3) |]);
      same "int_label_int3"
        (fun a -> Fnv.Acc.int_label_int3 a x.(0) l x.(1) x.(2) x.(3))
        (fun b ->
          Fnv.Acc.int b x.(0);
          Fnv.Acc.string b (Fnv.Label.text l);
          ints b [| x.(1); x.(2); x.(3) |]);
      same "int_label_int"
        (fun a -> Fnv.Acc.int_label_int a x.(0) l x.(1))
        (fun b ->
          Fnv.Acc.int b x.(0);
          Fnv.Acc.string b (Fnv.Label.text l);
          Fnv.Acc.int b x.(1));
      same "int3"
        (fun a -> Fnv.Acc.int3 a x.(0) x.(1) x.(2))
        (fun b -> ints b [| x.(0); x.(1); x.(2) |]);
      true)

(* A trace digest depends on a label's bytes only: the same through a
   label declared whole and one split across cat and name. *)
let test_trace_label_paths () =
  let whole = Trace.label "trace.paths" in
  let split = Fnv.Label.declare ~cat:"trace" ~name:".paths" in
  let longer = Trace.label "trace.paths\000" in
  let run l =
    let t = Trace.create () in
    for i = 0 to 99 do
      Trace.emit t ~cycle:(i * 13) ~label:l ~value:(i - 50)
    done;
    Trace.digest t
  in
  let expect =
    let h = ref Fnv.empty in
    for i = 0 to 99 do
      let h' = Fnv.add_string (Fnv.add_int !h (i * 13)) "trace.paths" in
      h := Fnv.add_int64 h' (Int64.of_int (i - 50))
    done;
    !h
  in
  Alcotest.(check string) "declared whole" (Fnv.to_hex expect) (Fnv.to_hex (run whole));
  Alcotest.(check string) "split across cat and name" (Fnv.to_hex expect) (Fnv.to_hex (run split));
  Alcotest.(check bool) "an extra byte changes it" false (Fnv.equal expect (run longer))

(* The names table behind the registry and every collector: dense ids,
   one per pair, found again after growth, and empty after [clear]. *)
let test_names_table () =
  let t = Fnv.Names.create () in
  let pair i = (string_of_int (i mod 7), Printf.sprintf "n%d" i) in
  for i = 0 to 999 do
    let cat, name = pair i in
    check_int "dense id" i (Fnv.Names.intern t ~cat ~name)
  done;
  for i = 0 to 999 do
    let cat, name = pair i in
    check_int "same id" i (Fnv.Names.intern t ~cat ~name);
    check_int "found" i (Fnv.Names.find t ~cat ~name);
    Alcotest.(check (pair string string)) "text" (cat, name) Fnv.Names.(cat t i, name t i)
  done;
  check_int "cat and name are distinct parts" (-1) (Fnv.Names.find t ~cat:"" ~name:"0n0");
  check_int "count" 1_000 (Fnv.Names.count t);
  Fnv.Names.clear t;
  check_int "cleared" 0 (Fnv.Names.count t);
  check_int "gone" (-1) (Fnv.Names.find t ~cat:"0" ~name:"n0");
  check_int "ids restart" 0 (Fnv.Names.intern t ~cat:"a" ~name:"b")

(* ------------------------------------------------------------------ *)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_queue_sorted; prop_queue_model; prop_fnv_matches_reference; prop_percentile_bounds;
      prop_label_fold; prop_record_folds; prop_run_stop_matches_single_events ]

let suite =
  [
    Alcotest.test_case "fnv: known vectors" `Quick test_fnv_known;
    Alcotest.test_case "fnv: order sensitive" `Quick test_fnv_order_sensitive;
    Alcotest.test_case "fnv: int/int64 consistent" `Quick test_fnv_int_int64_consistent;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split stable" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: split labels distinct" `Quick test_rng_split_distinct;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int rejects a bad bound" `Quick test_rng_int_rejects_bad_bound;
    Alcotest.test_case "rng: float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng: gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "cycles: conversions" `Quick test_cycles_roundtrip;
    Alcotest.test_case "cycles: pp units" `Quick test_cycles_pp_units;
    Alcotest.test_case "sim: max events" `Quick test_sim_max_events;
    Alcotest.test_case "queue: time order" `Quick test_queue_time_order;
    Alcotest.test_case "queue: fifo on ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue: cancel" `Quick test_queue_cancel;
    Alcotest.test_case "queue: cancel after fire" `Quick test_queue_cancel_after_fire;
    Alcotest.test_case "queue: peek skips cancelled" `Quick test_queue_peek_skips_cancelled;
    Alcotest.test_case "queue: cancel after slot reuse" `Quick test_queue_cancel_after_slot_reuse;
    Alcotest.test_case "queue: 64 ranks in lockstep" `Quick test_queue_lockstep_ranks;
    Alcotest.test_case "queue: cancelled chain tail" `Quick test_queue_cancelled_tail;
    Alcotest.test_case "queue: times sharing a table entry" `Quick test_queue_table_collision;
    Alcotest.test_case "sim: ordering and clock" `Quick test_sim_ordering_and_clock;
    Alcotest.test_case "sim: schedule from event" `Quick test_sim_schedule_from_event;
    Alcotest.test_case "sim: until limit" `Quick test_sim_until;
    Alcotest.test_case "sim: halt" `Quick test_sim_halt;
    Alcotest.test_case "sim: schedule_at rejects the past" `Quick
      test_sim_schedule_at_rejects_past;
    Alcotest.test_case "sim: schedule_in rejects a negative delay" `Quick
      test_sim_schedule_in_rejects_negative;
    Alcotest.test_case "sim: until with a cancelled head" `Quick test_sim_until_cancelled_head;
    Alcotest.test_case "sim: until is inclusive" `Quick test_sim_until_inclusive;
    Alcotest.test_case "sim: max events per call" `Quick test_sim_max_events_per_call;
    Alcotest.test_case "sim: halt from a thunk resumes" `Quick test_sim_halt_resumes;
    Alcotest.test_case "sim: event at max_int fires" `Quick test_sim_max_int_event;
    Alcotest.test_case "fnv: allocates only its result" `Quick test_fnv_alloc;
    Alcotest.test_case "sim: run allocates nothing per event" `Quick test_sim_run_alloc;
    Alcotest.test_case "sim: schedule allocates nothing" `Quick test_sim_schedule_alloc;
    Alcotest.test_case "sim: rng stream persistent" `Quick test_sim_rng_stream_persistent;
    Alcotest.test_case "trace: record retention" `Quick test_trace_record_retention;
    Alcotest.test_case "sim: trace digest reproducible" `Quick test_sim_trace_digest_reproducible;
    Alcotest.test_case "stats: summary" `Quick test_stats_summary;
    Alcotest.test_case "stats: spread" `Quick test_stats_spread;
    Alcotest.test_case "stats: spread zero-min guard" `Quick test_stats_spread_zero_min;
    Alcotest.test_case "trace: iter matches records" `Quick test_trace_iter_matches_records;
    Alcotest.test_case "trace: emit allocates nothing" `Quick test_trace_emit_alloc;
    Alcotest.test_case "trace: digest folds int64 bytes" `Quick
      test_trace_digest_folds_int64_bytes;
    Alcotest.test_case "fnv: every declared label folds as its bytes" `Quick
      test_declared_labels_fold;
    Alcotest.test_case "trace: a label digests as its bytes" `Quick test_trace_label_paths;
    Alcotest.test_case "fnv: names table" `Quick test_names_table;
    Alcotest.test_case "stats: online = batch" `Quick test_stats_online_matches_batch;
    Alcotest.test_case "stats: histogram" `Quick test_stats_histogram;
  ]
  @ qcheck
