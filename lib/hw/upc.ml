type event =
  | L1_miss
  | Tlb_miss
  | Tlb_refill
  | Torus_packet
  | Barrier_wait
  | Dram_self_refresh
  | Dma_descriptor

let all_events =
  [
    L1_miss; Tlb_miss; Tlb_refill; Torus_packet; Barrier_wait; Dram_self_refresh;
    Dma_descriptor;
  ]

let event_index = function
  | L1_miss -> 0
  | Tlb_miss -> 1
  | Tlb_refill -> 2
  | Torus_packet -> 3
  | Barrier_wait -> 4
  | Dram_self_refresh -> 5
  | Dma_descriptor -> 6

let n_events = 7

let event_name = function
  | L1_miss -> "l1_miss"
  | Tlb_miss -> "tlb_miss"
  | Tlb_refill -> "tlb_refill"
  | Torus_packet -> "torus_packet"
  | Barrier_wait -> "barrier_wait"
  | Dram_self_refresh -> "dram_self_refresh"
  | Dma_descriptor -> "dma_descriptor"

let chip_scope = -1

type reading = { event : event; core : int; count : int }

type t = {
  cores : int;
  (* live counters, indexed [event_index * (cores + 1) + (core + 1)];
     slot 0 of each event row is the chip-scope counter *)
  counts : int array;
  (* latched copy written by [freeze]; [None] until the first freeze *)
  mutable frozen : int array option;
  mutable running : bool;
}

let create ~cores () =
  if cores <= 0 then invalid_arg "Upc.create";
  {
    cores;
    counts = Array.make (n_events * (cores + 1)) 0;
    frozen = None;
    running = false;
  }

let slot t event core =
  if core < chip_scope || core >= t.cores then invalid_arg "Upc: bad core";
  (event_index event * (t.cores + 1)) + core + 1

let start t = t.running <- true
let stop t = t.running <- false
let running t = t.running

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.frozen <- None;
  t.running <- false

let record t ~core event n =
  if t.running then begin
    let i = slot t event core in
    t.counts.(i) <- t.counts.(i) + n
  end

let freeze t = t.frozen <- Some (Array.copy t.counts)

let read t ?(core = chip_scope) event = t.counts.(slot t event core)

let readings_of_array t a =
  List.concat_map
    (fun event ->
      List.filter_map
        (fun core ->
          let c = a.((event_index event * (t.cores + 1)) + core + 1) in
          if c = 0 then None else Some { event; core; count = c })
        (List.init (t.cores + 1) (fun i -> i - 1)))
    all_events

let snapshot t = readings_of_array t t.counts

(* [counts] is laid out event-major, chip scope first, which is
   [snapshot]'s order, so a straight walk visits readings in that order. *)
let events = Array.of_list all_events

let iter_nonzero t f =
  let row = t.cores + 1 in
  Array.iteri
    (fun i c -> if c <> 0 then f events.(i / row) ~core:((i mod row) - 1) c)
    t.counts

let frozen_snapshot t = Option.map (readings_of_array t) t.frozen

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.cores;
  Buffer.add_uint8 b (if t.running then 1 else 0);
  Array.iter w_i t.counts;
  match t.frozen with
  | None -> Buffer.add_uint8 b 0
  | Some a ->
    Buffer.add_uint8 b 1;
    Array.iter w_i a

let digest t =
  let open Bg_engine in
  let h = Array.fold_left Fnv.add_int Fnv.empty t.counts in
  match t.frozen with
  | None -> h
  | Some a -> Array.fold_left Fnv.add_int (Fnv.add_int h 1) a
