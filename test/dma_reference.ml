(* Reference implementation for the DMA counter model test in
   [test_dma.ml]: the engine as it was when its completion counters and
   their done-cycles lived in two [Hashtbl]s keyed by counter id. Kept
   verbatim apart from this header and the [open] below, which names the
   library the module used to live in. *)

open Bg_hw

open Bg_engine

(* Cost model, in 850 MHz cycles. The engine pulls one descriptor off the
   injection FIFO per [desc_process_cycles]; a remote get request turns
   around in the target's DMA with no CPU involvement; a delivery that
   finds the reception FIFO full is retried by the hardware after
   [recv_retry_cycles] (the torus backpressures the packet). *)
let desc_process_cycles = 24
let get_turnaround_cycles = 60
let recv_retry_cycles = 400
let header_bytes = 16

let default_injection_depth = 256
let default_reception_depth = 1024

type kind = Eager | Rdma_put | Rdma_get

type descriptor = {
  kind : kind;
  dst : int;
  tag : int;
  payload : bytes;
  bytes : int;
  counter : int;
  arm_bytes : int;
  ctx : int;
}

let descriptor ?(payload = Bytes.empty) ?(counter = -1) ?arm_bytes ?(ctx = 0) ~kind ~dst
    ~tag ~bytes () =
  if bytes < 0 then invalid_arg "Dma.descriptor: negative size";
  let arm_bytes = match arm_bytes with Some a -> a | None -> bytes in
  { kind; dst; tag; payload; bytes; counter; arm_bytes; ctx }

type packet = { pkt_src : int; pkt_tag : int; pkt_payload : bytes; pkt_ctx : int }

type stats = {
  mutable injected : int;
  mutable delivered : int;
  mutable bytes_injected : int;
  mutable bytes_delivered : int;
  mutable inject_stalls : int;
  mutable recv_backpressure : int;
  mutable dropped : int;
}

(* Counter ids are small dense ints in practice, but [set_counter] takes
   any non-negative id, so the tables stay hash tables; hashing by identity
   keeps every lookup clear of the polymorphic hash and compare. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

type t = {
  sim : Sim.t;
  torus : Torus.t;
  rank : int;
  inj_depth : int;
  rcv_depth : int;
  inj : descriptor Queue.t;
  rcv : packet Queue.t;
  (* byte-decrement completion counters: armed at inject, decremented at
     delivery; hitting zero latches the completion cycle *)
  counters : int Itbl.t;
  done_at : Cycles.t Itbl.t;
  mutable pumping : bool;
  stats : stats;
  mutable peers : t array;
  mutable read_hook : tag:int -> bytes;
  mutable write_hook : tag:int -> data:bytes -> unit;
  mutable on_inject : bytes:int -> unit;
  mutable on_deliver : bytes:int -> unit;
  mutable on_counter_done : id:int -> ctx:int -> unit;
}

let create_group sim torus ?(injection_depth = default_injection_depth)
    ?(reception_depth = default_reception_depth) () =
  if injection_depth <= 0 || reception_depth <= 0 then invalid_arg "Dma.create_group";
  let n = Torus.node_count torus in
  let engines =
    Array.init n (fun rank ->
        {
          sim;
          torus;
          rank;
          inj_depth = injection_depth;
          rcv_depth = reception_depth;
          inj = Queue.create ();
          rcv = Queue.create ();
          counters = Itbl.create 16;
          done_at = Itbl.create 16;
          pumping = false;
          stats =
            {
              injected = 0;
              delivered = 0;
              bytes_injected = 0;
              bytes_delivered = 0;
              inject_stalls = 0;
              recv_backpressure = 0;
              dropped = 0;
            };
          peers = [||];
          read_hook = (fun ~tag:_ -> Bytes.empty);
          write_hook = (fun ~tag:_ ~data:_ -> ());
          on_inject = (fun ~bytes:_ -> ());
          on_deliver = (fun ~bytes:_ -> ());
          on_counter_done = (fun ~id:_ ~ctx:_ -> ());
        })
  in
  Array.iter (fun e -> e.peers <- engines) engines;
  engines

let rank t = t.rank
let stats t = t.stats
let injection_occupancy t = Queue.length t.inj
let reception_occupancy t = Queue.length t.rcv
let injection_depth t = t.inj_depth

let set_read_hook t f = t.read_hook <- f
let set_write_hook t f = t.write_hook <- f
let set_inject_hook t f = t.on_inject <- f
let set_deliver_hook t f = t.on_deliver <- f
let set_counter_done_hook t f = t.on_counter_done <- f

let set_counter t ~id v =
  if id < 0 then invalid_arg "Dma.set_counter";
  Itbl.replace t.counters id v;
  Itbl.remove t.done_at id;
  if v = 0 then Itbl.replace t.done_at id (Sim.now t.sim)

let counter_value t ~id = match Itbl.find_opt t.counters id with Some v -> v | None -> 0
let counter_done_at t ~id = Itbl.find_opt t.done_at id

let decrement ?(ctx = 0) t ~id ~by =
  if id >= 0 then
    match Itbl.find_opt t.counters id with
    | None -> ()
    | Some v ->
      let v' = Int.max 0 (v - by) in
      Itbl.replace t.counters id v';
      if v' = 0 && not (Itbl.mem t.done_at id) then begin
        Itbl.replace t.done_at id (Sim.now t.sim);
        t.on_counter_done ~id ~ctx
      end

let wire_bytes d = d.bytes + header_bytes

let mark_delivered target ~bytes =
  target.stats.delivered <- target.stats.delivered + 1;
  target.stats.bytes_delivered <- target.stats.bytes_delivered + bytes;
  target.on_deliver ~bytes

(* Reception-side delivery of an eager packet. A full reception FIFO
   backpressures into the torus: the packet is retried until the receiver
   drains (deterministic: one retry event per blocked packet). *)
let rec deliver_eager src_engine target d =
  if Queue.length target.rcv >= target.rcv_depth then begin
    target.stats.recv_backpressure <- target.stats.recv_backpressure + 1;
    ignore
      (Sim.schedule_in src_engine.sim recv_retry_cycles (fun () ->
           deliver_eager src_engine target d))
  end
  else begin
    Queue.push
      { pkt_src = src_engine.rank; pkt_tag = d.tag; pkt_payload = d.payload;
        pkt_ctx = d.ctx }
      target.rcv;
    mark_delivered target ~bytes:d.bytes;
    decrement ~ctx:d.ctx src_engine ~id:d.counter ~by:d.bytes
  end

let launch t d =
  let target = t.peers.(d.dst) in
  match d.kind with
  | Rdma_put -> (
    try
      Torus.transfer t.torus ~src:t.rank ~dst:d.dst ~bytes:(wire_bytes d)
        ~on_arrival:(fun ~arrival_cycle:_ ->
          if Bytes.length d.payload > 0 then target.write_hook ~tag:d.tag ~data:d.payload;
          mark_delivered target ~bytes:d.bytes;
          decrement ~ctx:d.ctx t ~id:d.counter ~by:d.bytes)
        ()
    with Fault.Unavailable _ -> t.stats.dropped <- t.stats.dropped + 1)
  | Eager -> (
    try
      Torus.transfer t.torus ~src:t.rank ~dst:d.dst ~bytes:(wire_bytes d)
        ~on_arrival:(fun ~arrival_cycle:_ -> deliver_eager t target d)
        ()
    with Fault.Unavailable _ -> t.stats.dropped <- t.stats.dropped + 1)
  | Rdma_get -> (
    (* request packet out; the target's DMA reads the named buffer and
       streams it back with no remote CPU involvement *)
    try
      Torus.transfer t.torus ~src:t.rank ~dst:d.dst ~bytes:header_bytes
        ~on_arrival:(fun ~arrival_cycle:_ ->
          let data = target.read_hook ~tag:d.tag in
          ignore
            (Sim.schedule_in t.sim get_turnaround_cycles (fun () ->
                 try
                   Torus.transfer t.torus ~src:d.dst ~dst:t.rank
                     ~bytes:(Bytes.length data + header_bytes)
                     ~on_arrival:(fun ~arrival_cycle:_ ->
                       t.write_hook ~tag:d.tag ~data;
                       mark_delivered t ~bytes:(Bytes.length data);
                       decrement ~ctx:d.ctx t ~id:d.counter ~by:d.bytes)
                     ()
                 with Fault.Unavailable _ -> t.stats.dropped <- t.stats.dropped + 1)))
        ()
    with Fault.Unavailable _ -> t.stats.dropped <- t.stats.dropped + 1)

let rec pump t =
  match Queue.take_opt t.inj with
  | None -> t.pumping <- false
  | Some d ->
    launch t d;
    if Queue.is_empty t.inj then t.pumping <- false
    else ignore (Sim.schedule_in t.sim desc_process_cycles (fun () -> pump t))

let inject t d =
  if d.dst < 0 || d.dst >= Array.length t.peers then invalid_arg "Dma.inject: bad dst";
  if Queue.length t.inj >= t.inj_depth then begin
    t.stats.inject_stalls <- t.stats.inject_stalls + 1;
    Error `Fifo_full
  end
  else begin
    if d.counter >= 0 && d.arm_bytes > 0 then begin
      Itbl.replace t.counters d.counter (counter_value t ~id:d.counter + d.arm_bytes);
      Itbl.remove t.done_at d.counter
    end
    else if d.counter >= 0 && not (Itbl.mem t.counters d.counter) then
      set_counter t ~id:d.counter 0;
    Queue.push d t.inj;
    t.stats.injected <- t.stats.injected + 1;
    t.stats.bytes_injected <- t.stats.bytes_injected + d.bytes;
    t.on_inject ~bytes:d.bytes;
    if not t.pumping then begin
      t.pumping <- true;
      ignore (Sim.schedule_in t.sim desc_process_cycles (fun () -> pump t))
    end;
    Ok ()
  end

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_raw x =
    w_i (Bytes.length x);
    Buffer.add_bytes b x
  in
  w_i t.rank;
  w_i t.inj_depth;
  w_i t.rcv_depth;
  Buffer.add_uint8 b (if t.pumping then 1 else 0);
  w_i t.stats.injected;
  w_i t.stats.delivered;
  w_i t.stats.bytes_injected;
  w_i t.stats.bytes_delivered;
  w_i t.stats.inject_stalls;
  w_i t.stats.recv_backpressure;
  w_i t.stats.dropped;
  w_i (Queue.length t.inj);
  Queue.iter
    (fun d ->
      w_i (match d.kind with Eager -> 0 | Rdma_put -> 1 | Rdma_get -> 2);
      w_i d.dst;
      w_i d.tag;
      w_i d.bytes;
      w_i d.counter;
      w_i d.arm_bytes;
      w_i d.ctx;
      w_raw d.payload)
    t.inj;
  w_i (Queue.length t.rcv);
  Queue.iter
    (fun p ->
      w_i p.pkt_src;
      w_i p.pkt_tag;
      w_i p.pkt_ctx;
      w_raw p.pkt_payload)
    t.rcv;
  let sorted tbl = Itbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  let counters = sorted t.counters in
  w_i (List.length counters);
  List.iter
    (fun (id, v) ->
      w_i id;
      w_i v)
    counters;
  let done_at = sorted t.done_at in
  w_i (List.length done_at);
  List.iter
    (fun (id, c) ->
      w_i id;
      w_i c)
    done_at

let drain_recv t =
  let out = ref [] in
  while not (Queue.is_empty t.rcv) do
    out := Queue.pop t.rcv :: !out
  done;
  List.rev !out
