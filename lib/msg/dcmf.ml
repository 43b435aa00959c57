open Bg_engine
open Bg_hw

(* Causal labels, declared once (see [Bg_engine.Fnv.Label]). *)
module L = struct
  let inject_fence = Bg_obs.Obs.label ~cat:"dma" ~name:"inject.fence"
  let inject_get = Bg_obs.Obs.label ~cat:"dma" ~name:"inject.get"
  let inject_put = Bg_obs.Obs.label ~cat:"dma" ~name:"inject.put"
  let inject_put_large = Bg_obs.Obs.label ~cat:"dma" ~name:"inject.put_large"
  let recv_eager = Bg_obs.Obs.label ~cat:"msg" ~name:"recv_eager"
  let send_eager = Bg_obs.Obs.label ~cat:"msg" ~name:"send_eager"
end

type path = Abstract | Dma_user | Dma_kernel

(* Handle completion is either stamped directly by a simulation callback
   (the abstract path) or read off a DMA byte-decrement counter. *)
type completion =
  | Direct
  | Counter of { engine : Dma.t; id : int; kernel : bool }

type handle = {
  mutable complete : bool;
  mutable at : Cycles.t;
  mutable data : bytes option;
  comp : completion;
}

(* The software inbox of arrived eager packets, oldest first, in a
   growable array: a receive scans it in place and removes the first
   match, shifting the later entries down, so a poll allocates nothing. *)
module Inbox = struct
  type t = { mutable entries : Dma.packet array; mutable len : int }

  let none = { Dma.pkt_src = -1; pkt_tag = -1; pkt_payload = Bytes.empty; pkt_ctx = 0 }
  let create () = { entries = [||]; len = 0 }
  let length t = t.len

  let push t p =
    if t.len = Array.length t.entries then begin
      let entries = Array.make (max 8 (2 * t.len)) none in
      Array.blit t.entries 0 entries 0 t.len;
      t.entries <- entries
    end;
    t.entries.(t.len) <- p;
    t.len <- t.len + 1

  let rec find entries len tag i =
    if i >= len then -1
    else if (Array.unsafe_get entries i).Dma.pkt_tag = tag then i
    else find entries len tag (i + 1)

  let take t ~tag =
    let i = find t.entries t.len tag 0 in
    if i < 0 then none
    else begin
      let p = t.entries.(i) in
      Array.blit t.entries (i + 1) t.entries i (t.len - i - 1);
      t.len <- t.len - 1;
      t.entries.(t.len) <- none;
      p
    end
end

type ctx = {
  fabric : fabric;
  rank : int;
  engine : Dma.t option;                       (* this rank's DMA engine *)
  buffers : (int, bytes) Hashtbl.t;            (* tag -> registered buffer *)
  eager_inbox : Inbox.t;
  landings : (int, bytes -> unit) Hashtbl.t;   (* tag -> one-shot get landing *)
  mutable next_counter : int;
  mutable next_rdv : int;
}

and fabric = { machine : Machine.t; path : path; ctxs : (int, ctx) Hashtbl.t }

(* Private tag namespaces, far above anything MPI's tag encoding
   produces. Rendezvous source buffers, FIN packets, the per-source RTS
   channel, and put-with-ack probe landings each get their own range. *)
let rdv_data_base = 0x3D00_0000
let fin_base = 0x3E00_0000
let rts_base = 0x3F00_0000
let ack_base = 0x3C00_0000
let rts_tag ~src = rts_base + src

let make_fabric ?(path = Abstract) machine =
  { machine; path; ctxs = Hashtbl.create 16 }

let machine f = f.machine
let fabric_path f = f.path

(* Causal hooks: sends mint a node whose id rides the carrier (the DMA
   descriptor on the real paths, the inbox entry on the abstract one);
   the matching receive links a Send_recv edge back to it. All no-ops
   while the machine's causal collector is disabled. *)
let causal_of c = Machine.causal c.fabric.machine

let causal_mint c label =
  let g = causal_of c in
  if Bg_obs.Causal.enabled g then
    Bg_obs.Causal.mint_l g ~chain:true label ~rank:c.rank ~core:0
      ~now:(Sim.now c.fabric.machine.Machine.sim)
  else Bg_obs.Causal.none

let causal_recv c label ~src_ctx =
  let g = causal_of c in
  if Bg_obs.Causal.enabled g && src_ctx <> Bg_obs.Causal.none then begin
    let r =
      Bg_obs.Causal.mint_l g ~chain:true label ~rank:c.rank ~core:0
        ~now:(Sim.now c.fabric.machine.Machine.sim)
    in
    Bg_obs.Causal.link g Bg_obs.Causal.Send_recv ~src:src_ctx ~dst:r
  end
let fabric_of c = c.fabric
let rank c = c.rank
let path_of c = c.fabric.path
let node_count c = Machine.nodes c.fabric.machine
let sim c = c.fabric.machine.Machine.sim
let torus c = c.fabric.machine.Machine.torus

let engine_exn c =
  match c.engine with
  | Some e -> e
  | None -> invalid_arg "Dcmf: rank has no DMA engine"

let deposit peer_ctx ~tag ~data =
  (match Hashtbl.find_opt peer_ctx.buffers tag with
  | Some buf ->
    let n = min (Bytes.length data) (Bytes.length buf) in
    Bytes.blit data 0 buf 0 n
  | None ->
    (* unregistered target: auto-register, as a convenience *)
    Hashtbl.replace peer_ctx.buffers tag (Bytes.copy data))

let attach fabric ~rank =
  match Hashtbl.find_opt fabric.ctxs rank with
  | Some c -> c
  | None ->
    let engine =
      if rank >= 0 && rank < Machine.nodes fabric.machine then
        Some (Machine.dma fabric.machine rank)
      else None
    in
    let c =
      { fabric; rank; engine;
        buffers = Hashtbl.create 8;
        eager_inbox = Inbox.create ();
        landings = Hashtbl.create 8;
        next_counter = 1;
        next_rdv = 1 }
    in
    (if fabric.path <> Abstract then begin
       let e = engine_exn c in
       (* Remote gets stream straight out of the registered buffers, no
          remote CPU involved. Landing data routes through the one-shot
          landing table first (get results), then the buffer deposit. *)
       Dma.set_read_hook e (fun ~tag ->
           match Hashtbl.find_opt c.buffers tag with
           | Some b -> Bytes.copy b
           | None -> Bytes.empty);
       Dma.set_write_hook e (fun ~tag ~data ->
           match Hashtbl.find_opt c.landings tag with
           | Some landing ->
             Hashtbl.remove c.landings tag;
             landing data
           | None -> deposit c ~tag ~data)
     end);
    Hashtbl.replace fabric.ctxs rank c;
    c

let peer c rank =
  match Hashtbl.find_opt c.fabric.ctxs rank with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Dcmf: rank %d not attached" rank)

let register c ~tag ~bytes = Hashtbl.replace c.buffers tag (Bytes.make bytes '\000')

let buffer c ~tag =
  match Hashtbl.find_opt c.buffers tag with
  | Some b -> Bytes.copy b
  | None -> invalid_arg "Dcmf.buffer: unregistered tag"

let fresh_counter c =
  let id = c.next_counter in
  c.next_counter <- id + 1;
  id

let fresh_rdv c =
  let id = c.next_rdv in
  c.next_rdv <- id + 1;
  id

let fresh_handle () = { complete = false; at = 0; data = None; comp = Direct }

let counter_handle c id =
  { complete = false; at = 0; data = None;
    comp =
      Counter
        { engine = engine_exn c; id; kernel = c.fabric.path = Dma_kernel } }

let finish h ~at ?data () =
  h.complete <- true;
  h.at <- at;
  h.data <- data

let is_complete h =
  (match h.comp with
  | Direct -> ()
  | Counter { engine; id; kernel = _ } ->
    if (not h.complete) && Dma.counter_value engine ~id = 0 then begin
      h.complete <- true;
      h.at <- (match Dma.counter_done_at engine ~id with Some at -> at | None -> 0)
    end);
  h.complete

let completion_cycle h =
  if not (is_complete h) then invalid_arg "Dcmf.completion_cycle: pending";
  h.at

let fetched h =
  match h.data with
  | Some d -> d
  | None -> invalid_arg "Dcmf.fetched: no data (not a completed get?)"

(* Polling wait, as DCMF does on CNK (interrupts stay off). The interval
   backs off so multi-megabyte transfers do not flood the event queue.
   On the kernel-mediated path every counter read is a Dma_poll syscall:
   the trap cost — and, under the FWK's tick scheduler, preemption — is
   charged on each poll, which is exactly the Table I gap. *)
let wait h =
  let poll interval =
    (match h.comp with
    | Counter { id; kernel = true; engine = _ } ->
      ignore
        (Sysreq.expect_int (Coro.syscall (Sysreq.Dma_poll (Sysreq.Dma_counter id))))
    | _ -> ());
    Coro.consume interval
  in
  let rec go interval =
    if not (is_complete h) then begin
      poll interval;
      go (min 2_000 (interval * 2))
    end
  in
  go 50

(* --- descriptor injection ------------------------------------------- *)

(* CNK: the injection FIFO is memory-mapped, so injection is a handful of
   user-mode stores; a full FIFO is spun on in user space (stall-on-full
   backpressure). FWK: every injection traps into the kernel, which must
   translate and pin the buffer before touching the FIFO; EAGAIN maps the
   same backpressure through the syscall boundary. *)
let inject_paced c d =
  match c.fabric.path with
  | Abstract -> invalid_arg "Dcmf: descriptor injection on an abstract fabric"
  | Dma_user ->
    Coro.consume Msg_params.dma_user_inject_sw;
    let e = engine_exn c in
    let rec go () =
      match Dma.inject e d with
      | Ok () -> ()
      | Error `Fifo_full ->
        Coro.consume Msg_params.dma_stall_retry_sw;
        go ()
    in
    go ()
  | Dma_kernel ->
    let rec go () =
      match Coro.syscall (Sysreq.Dma_inject d) with
      | Sysreq.R_err Errno.EAGAIN ->
        Coro.consume Msg_params.dma_stall_retry_sw;
        go ()
      | r -> Sysreq.expect_unit r
    in
    go ()

(* --- one-sided operations ------------------------------------------- *)

let put c ~dst ~tag ~data =
  match c.fabric.path with
  | Abstract ->
    let h = fresh_handle () in
    Coro.consume Msg_params.put_sw;
    let p = peer c dst in
    Torus.transfer (torus c) ~src:c.rank ~dst ~bytes:(Bytes.length data)
      ~on_arrival:(fun ~arrival_cycle ->
        deposit p ~tag ~data;
        finish h ~at:arrival_cycle ())
      ();
    h
  | Dma_user | Dma_kernel ->
    let id = fresh_counter c in
    let d =
      Dma.descriptor ~kind:Dma.Rdma_put ~dst ~tag ~payload:data
        ~bytes:(Bytes.length data) ~counter:id
        ~ctx:(causal_mint c L.inject_put) ()
    in
    inject_paced c d;
    counter_handle c id

let put_with_ack c ~dst ~tag ~data =
  match c.fabric.path with
  | Abstract ->
    let h = fresh_handle () in
    Coro.consume Msg_params.put_sw;
    let p = peer c dst in
    Torus.transfer (torus c) ~src:c.rank ~dst ~bytes:(Bytes.length data)
      ~on_arrival:(fun ~arrival_cycle:_ ->
        deposit p ~tag ~data;
        (* hardware ack packet back to the origin *)
        Torus.transfer (torus c) ~src:dst ~dst:c.rank
          ~bytes:Msg_params.remote_ack_bytes
          ~on_arrival:(fun ~arrival_cycle -> finish h ~at:arrival_cycle ())
          ())
      ();
    h
  | Dma_user | Dma_kernel ->
    let idp = fresh_counter c in
    let d =
      Dma.descriptor ~kind:Dma.Rdma_put ~dst ~tag ~payload:data
        ~bytes:(Bytes.length data) ~counter:idp
        ~ctx:(causal_mint c L.inject_put) ()
    in
    inject_paced c d;
    (* The ack round: a small get chases the put through the same
       injection FIFO and route, so its completion implies the put has
       landed remotely — the DMA fence idiom. *)
    let ida = fresh_counter c in
    let probe_tag = ack_base + fresh_rdv c in
    Hashtbl.replace c.landings probe_tag (fun _ -> ());
    let g =
      Dma.descriptor ~kind:Dma.Rdma_get ~dst ~tag:probe_tag
        ~bytes:Msg_params.remote_ack_bytes ~counter:ida
        ~ctx:(causal_mint c L.inject_fence) ()
    in
    inject_paced c g;
    counter_handle c ida

let get c ~src ~tag =
  match c.fabric.path with
  | Abstract ->
    let h = fresh_handle () in
    Coro.consume Msg_params.get_request_sw;
    let p = peer c src in
    (* request packet to the data owner; its DMA reads and streams back,
       no remote CPU involvement *)
    Torus.transfer (torus c) ~src:c.rank ~dst:src ~bytes:Msg_params.small_packet_bytes
      ~on_arrival:(fun ~arrival_cycle:_ ->
        let data =
          match Hashtbl.find_opt p.buffers tag with
          | Some b -> Bytes.copy b
          | None -> Bytes.empty
        in
        ignore
          (Sim.schedule_in (sim c) Msg_params.get_remote_dma (fun () ->
               Torus.transfer (torus c) ~src ~dst:c.rank ~bytes:(Bytes.length data)
                 ~on_arrival:(fun ~arrival_cycle ->
                   finish h ~at:arrival_cycle ~data ())
                 ())))
      ();
    h
  | Dma_user | Dma_kernel ->
    Coro.consume Msg_params.get_request_sw;
    let p = peer c src in
    let remote_bytes =
      match Hashtbl.find_opt p.buffers tag with
      | Some b -> Bytes.length b
      | None -> 0
    in
    let id = fresh_counter c in
    let h = counter_handle c id in
    h.data <- Some Bytes.empty; (* overwritten when the data lands *)
    Hashtbl.replace c.landings tag (fun data -> h.data <- Some data);
    let d =
      Dma.descriptor ~kind:Dma.Rdma_get ~dst:src ~tag
        ~bytes:(max 1 remote_bytes) ~counter:id
        ~ctx:(causal_mint c L.inject_get) ()
    in
    inject_paced c d;
    h

(* --- two-sided eager ------------------------------------------------- *)

let send_eager c ~dst ~tag ~data =
  let send_ctx = causal_mint c L.send_eager in
  match c.fabric.path with
  | Abstract ->
    let h = fresh_handle () in
    Coro.consume (Msg_params.put_sw + Msg_params.eager_send_sw);
    let p = peer c dst in
    Torus.transfer (torus c) ~src:c.rank ~dst
      ~bytes:(Bytes.length data + Msg_params.small_packet_bytes)
      ~on_arrival:(fun ~arrival_cycle ->
        (* receive-side active-message dispatch costs CPU before the payload
           is usable *)
        ignore
          (Sim.schedule_in (sim c) Msg_params.eager_recv_handler (fun () ->
               Inbox.push p.eager_inbox
                 { Dma.pkt_src = c.rank; pkt_tag = tag; pkt_payload = data;
                   pkt_ctx = send_ctx };
               finish h ~at:(arrival_cycle + Msg_params.eager_recv_handler) ())))
      ();
    h
  | Dma_user | Dma_kernel ->
    (* eager copies the payload into the memory FIFO on the sending core:
       a per-byte cost rendezvous avoids, hence the crossover *)
    let bytes = Bytes.length data in
    Coro.consume (Msg_params.eager_send_sw + Msg_params.dma_copy_cycles bytes);
    let id = fresh_counter c in
    let d =
      Dma.descriptor ~kind:Dma.Eager ~dst ~tag ~payload:data ~bytes ~counter:id
        ~ctx:send_ctx ()
    in
    inject_paced c d;
    counter_handle c id

(* Pull everything out of the reception FIFO into the software inbox.
   User mode reads the mapped FIFO directly and pays only the per-packet
   dispatch + copy-out, and nothing when the FIFO is empty; kernel mode
   pays a Dma_poll syscall per call — even when the FIFO turns out to be
   empty. *)
let deliver c (p : Dma.packet) =
  Coro.consume
    (Msg_params.dma_recv_dispatch_sw + Msg_params.dma_copy_cycles (Bytes.length p.Dma.pkt_payload));
  Inbox.push c.eager_inbox p

(* A named loop, not [List.iter] over a partial application: a drain
   allocates nothing beyond the packets' list. *)
let rec deliver_all c = function
  | [] -> ()
  | p :: rest ->
    deliver c p;
    deliver_all c rest

let drain_reception c =
  match c.fabric.path with
  | Abstract -> ()
  | Dma_user ->
    let e = engine_exn c in
    if Dma.reception_occupancy e > 0 then deliver_all c (Dma.drain_recv e)
  | Dma_kernel ->
    deliver_all c
      (Sysreq.expect_dma_packets (Coro.syscall (Sysreq.Dma_poll Sysreq.Dma_recv)))

let try_recv_eager c ~tag =
  drain_reception c;
  let p = Inbox.take c.eager_inbox ~tag in
  if p == Inbox.none then None
  else begin
    causal_recv c L.recv_eager ~src_ctx:p.Dma.pkt_ctx;
    Some (p.Dma.pkt_src, p.Dma.pkt_payload)
  end

(* --- rendezvous ------------------------------------------------------ *)

let encode_rts ~tag ~data_tag ~fin_tag ~bytes =
  let b = Bytes.create 32 in
  Bytes.set_int64_le b 0 (Int64.of_int tag);
  Bytes.set_int64_le b 8 (Int64.of_int data_tag);
  Bytes.set_int64_le b 16 (Int64.of_int fin_tag);
  Bytes.set_int64_le b 24 (Int64.of_int bytes);
  b

(* Sender: expose the source buffer, send a small RTS describing it, spin
   until the receiver's FIN arrives. The bulk bytes move by the
   receiver's rDMA-get — zero-copy on both ends. *)
let send_rendezvous c ~dst ~tag ~data =
  let id = fresh_rdv c in
  let data_tag = rdv_data_base + id in
  let fin_tag = fin_base + id in
  Hashtbl.replace c.buffers data_tag (Bytes.copy data);
  Coro.consume Msg_params.rndv_rts_sw;
  ignore
    (send_eager c ~dst ~tag:(rts_tag ~src:c.rank)
       ~data:(encode_rts ~tag ~data_tag ~fin_tag ~bytes:(Bytes.length data)));
  let rec spin interval =
    match try_recv_eager c ~tag:fin_tag with
    | Some _ -> ()
    | None ->
      Coro.consume interval;
      spin (min 2_000 (interval * 2))
  in
  spin 50;
  Hashtbl.remove c.buffers data_tag

let recv_rendezvous c ~src ~tag =
  let chan = rts_tag ~src in
  let rec await interval =
    match try_recv_eager c ~tag:chan with
    | Some (_, p) when Int64.to_int (Bytes.get_int64_le p 0) = tag -> p
    | Some (_, p) ->
      (* an RTS for a different user tag: rotate it to the back (its
         receive edge was already recorded at the match above) *)
      Inbox.push c.eager_inbox
        { Dma.pkt_src = src; pkt_tag = chan; pkt_payload = p; pkt_ctx = Bg_obs.Causal.none };
      Coro.consume interval;
      await (min 2_000 (interval * 2))
    | None ->
      Coro.consume interval;
      await (min 2_000 (interval * 2))
  in
  let p = await 50 in
  let data_tag = Int64.to_int (Bytes.get_int64_le p 8) in
  let fin_tag = Int64.to_int (Bytes.get_int64_le p 16) in
  Coro.consume Msg_params.rndv_cts_sw;
  let g = get c ~src ~tag:data_tag in
  wait g;
  let data = fetched g in
  ignore
    (send_eager c ~dst:src ~tag:fin_tag
       ~data:(Bytes.create Msg_params.rndv_fin_bytes));
  data

(* --- bulk ------------------------------------------------------------ *)

let put_large c ~dst ~tag ~bytes ~contiguous =
  match c.fabric.path with
  | Abstract ->
    ignore tag;
    let h = fresh_handle () in
    if contiguous then begin
      (* one descriptor streams the whole physically contiguous buffer *)
      Coro.consume Msg_params.put_sw;
      Torus.transfer (torus c) ~src:c.rank ~dst ~bytes
        ~on_arrival:(fun ~arrival_cycle -> finish h ~at:arrival_cycle ())
        ()
    end
    else begin
      (* Fragmented buffer: the DMA cannot walk page tables (paper §IV.C),
         so software copies each 4 KiB piece through a contiguous bounce
         buffer (~1.2 B/cycle through DDR, competing with the DMA's own
         traffic) and builds a descriptor per piece. The copy runs on the
         calling core, so it serializes against every link this core
         feeds — that is what caps paged bandwidth below wire speed. *)
      let frag = Msg_params.paged_fragment_bytes in
      let pieces = max 1 ((bytes + frag - 1) / frag) in
      let outstanding = ref pieces in
      let last_arrival = ref 0 in
      Coro.consume Msg_params.put_sw;
      for i = 0 to pieces - 1 do
        let len = min frag (bytes - (i * frag)) in
        Coro.consume (Msg_params.paged_fragment_sw + int_of_float (float_of_int len /. 1.2));
        Torus.transfer (torus c) ~src:c.rank ~dst ~bytes:len
          ~on_arrival:(fun ~arrival_cycle ->
            last_arrival := max !last_arrival arrival_cycle;
            decr outstanding;
            if !outstanding = 0 then finish h ~at:!last_arrival ())
          ()
      done
    end;
    h
  | Dma_user | Dma_kernel ->
    let id = fresh_counter c in
    let lctx = causal_mint c L.inject_put_large in
    if contiguous then begin
      Coro.consume Msg_params.put_sw;
      inject_paced c
        (Dma.descriptor ~kind:Dma.Rdma_put ~dst ~tag ~bytes ~counter:id ~ctx:lctx ())
    end
    else begin
      (* Same fragmentation story, now with real descriptors: one per
         4 KiB piece, all sharing one counter. The first piece arms the
         full byte total so the counter cannot transiently hit zero; a
         full injection FIFO is absorbed by inject_paced's stall spin. *)
      let frag = Msg_params.paged_fragment_bytes in
      let pieces = max 1 ((bytes + frag - 1) / frag) in
      Coro.consume Msg_params.put_sw;
      for i = 0 to pieces - 1 do
        let len = min frag (bytes - (i * frag)) in
        Coro.consume
          (Msg_params.paged_fragment_sw + int_of_float (float_of_int len /. 1.2));
        inject_paced c
          (Dma.descriptor ~kind:Dma.Rdma_put ~dst ~tag ~bytes:len ~counter:id
             ~arm_bytes:(if i = 0 then bytes else 0) ~ctx:lctx ())
      done
    end;
    counter_handle c id

let barrier_via_hw c =
  let released = ref false in
  Bg_hw.Barrier_net.arrive c.fabric.machine.Machine.barrier ~rank:c.rank
    ~on_release:(fun ~release_cycle:_ -> released := true);
  let rec spin interval =
    if not !released then begin
      Coro.consume interval;
      spin (min 1_000 (interval * 2))
    end
  in
  spin 50

(* --- introspection --------------------------------------------------- *)

let dma_stats c =
  match c.engine with
  | Some e -> Some (Dma.stats e)
  | None -> None

let injected_descriptors c =
  match dma_stats c with Some s -> s.Dma.injected | None -> 0
