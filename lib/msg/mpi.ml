open Bg_engine

type t = { dcmf : Dcmf.ctx }

let create dcmf = { dcmf }
let dcmf t = t.dcmf
let rank t = Dcmf.rank t.dcmf
let size t = Dcmf.node_count t.dcmf
let eager_threshold = 1200

(* Tag-space encoding: MPI envelope (tag, src) onto a DCMF tag, with a
   disjoint channel for rendezvous control. *)
let enc_data ~tag ~src = (tag * 4096) + src
let enc_rts ~tag ~src = 0x2000_0000 + (tag * 4096) + src

let poll_quantum = 120

let send t ~dst ~tag data =
  Coro.consume Msg_params.mpi_send_overhead;
  if Bytes.length data > eager_threshold then
    invalid_arg "Mpi.send: payload above the eager threshold; use send_rendezvous";
  ignore (Dcmf.send_eager t.dcmf ~dst ~tag:(enc_data ~tag ~src:(rank t)) ~data)

(* A message matched by its encoded tag carries the source the tag
   names; anything else is a corrupted envelope. *)
let wrong_source ~src ~src' =
  invalid_arg (Printf.sprintf "Mpi: message from rank %d matched a receive from rank %d" src' src)

let recv t ~src ~tag =
  let dcmf_tag = enc_data ~tag ~src in
  let rec loop () =
    match Dcmf.try_recv_eager t.dcmf ~tag:dcmf_tag with
    | Some (src', data) ->
      if src' <> src then wrong_source ~src ~src';
      Coro.consume Msg_params.mpi_match_overhead;
      data
    | None ->
      Coro.consume poll_quantum;
      loop ()
  in
  loop ()

let send_rendezvous t ?(contiguous = true) ~dst ~tag bytes =
  let me = rank t in
  let machine = Dcmf.machine (Dcmf.fabric_of t.dcmf) in
  Coro.consume (Msg_params.mpi_send_overhead + Msg_params.rndv_rts_sw);
  (* RTS: an eager control message; completion means the remote dispatched
     the handler (receive modeled as already posted). *)
  let rts =
    Dcmf.send_eager t.dcmf ~dst ~tag:(enc_rts ~tag ~src:me) ~data:(Bytes.create 8)
  in
  Dcmf.wait rts;
  (* remote match + CTS turnaround, then the CTS packet crosses back *)
  Coro.consume (Msg_params.mpi_match_overhead + Msg_params.rndv_cts_sw);
  let cts_arrived = ref false in
  Bg_hw.Torus.transfer machine.Machine.torus ~src:dst ~dst:me
    ~bytes:Msg_params.small_packet_bytes
    ~on_arrival:(fun ~arrival_cycle:_ -> cts_arrived := true)
    ();
  let rec spin interval =
    if not !cts_arrived then begin
      Coro.consume interval;
      spin (min 500 (interval * 2))
    end
  in
  spin 60;
  (* data phase: one-sided bulk put into the receiver\'s landing buffer *)
  let h = Dcmf.put_large t.dcmf ~dst ~tag ~bytes ~contiguous in
  Dcmf.wait h

type request =
  | Req_send of Dcmf.handle
  | Req_recv of { src : int; dcmf_tag : int; mutable data : bytes option }

let isend t ~dst ~tag data =
  Coro.consume Msg_params.mpi_send_overhead;
  if Bytes.length data > eager_threshold then
    invalid_arg "Mpi.isend: payload above the eager threshold";
  Req_send (Dcmf.send_eager t.dcmf ~dst ~tag:(enc_data ~tag ~src:(rank t)) ~data)

let irecv t ~src ~tag =
  ignore (rank t);
  Req_recv { src; dcmf_tag = enc_data ~tag ~src; data = None }

let progress_recv t (src : int) dcmf_tag =
  match Dcmf.try_recv_eager t.dcmf ~tag:dcmf_tag with
  | Some (src', data) ->
    if src' <> src then wrong_source ~src ~src';
    Coro.consume Msg_params.mpi_match_overhead;
    Some data
  | None -> None

let test t req =
  match req with
  | Req_send h -> Dcmf.is_complete h
  | Req_recv r -> (
    match r.data with
    | Some _ -> true
    | None -> (
      match progress_recv t r.src r.dcmf_tag with
      | Some data ->
        r.data <- Some data;
        true
      | None -> false))

let wait t req =
  match req with
  | Req_send h ->
    Dcmf.wait h;
    Bytes.empty
  | Req_recv r -> (
    let rec loop () =
      match r.data with
      | Some d -> d
      | None ->
        (match progress_recv t r.src r.dcmf_tag with
        | Some d -> r.data <- Some d
        | None -> Coro.consume poll_quantum);
        loop ()
    in
    loop ())

let waitall t reqs = List.map (wait t) reqs

let sendrecv t ~dst ~send_tag data ~src ~recv_tag =
  let r = irecv t ~src ~tag:recv_tag in
  let s = isend t ~dst ~tag:send_tag data in
  let received = wait t r in
  ignore (wait t s);
  received

let barrier t = Dcmf.barrier_via_hw t.dcmf

module Coll = struct
  type waiter = {
    w_rank : int;
    mutable done_ : bool;
    mutable result : float;
    mutable pdata : bytes;
  }

  type coll = {
    machine : Machine.t;
    participants : int;
    mutable acc : float;
    mutable payload : bytes;  (* bcast slot, set by the root during a round *)
    mutable count : int;
    mutable first_arrival : Cycles.t;
    mutable waiters : waiter list;
    mutable last_latency : int;
    mutable contrib_ctxs : int list;  (* causal contribute nodes, this round *)
  }

  (* Causal shape of one round: every rank's [contribute] node feeds a
     single rankless "complete" node (the combine happens in the network,
     not on any core), which fans out to a "deliver" node per waiter. A
     backward latest-predecessor walk from any deliver therefore passes
     through the LAST contributor — the straggler — by construction. *)
  let contribute_label = Bg_obs.Obs.label ~cat:"coll" ~name:"contribute"
  let complete_label = Bg_obs.Obs.label ~cat:"coll" ~name:"complete"
  let deliver_label = Bg_obs.Obs.label ~cat:"coll" ~name:"deliver"

  let causal_contribute c ~rank =
    let g = Machine.causal c.machine in
    if Bg_obs.Causal.enabled g then begin
      let n =
        Bg_obs.Causal.mint_l g ~chain:true contribute_label ~rank ~core:0
          ~now:(Sim.now c.machine.Machine.sim)
      in
      if n <> Bg_obs.Causal.none then c.contrib_ctxs <- n :: c.contrib_ctxs
    end

  let causal_complete c ~ctxs ~completion waiters =
    let g = Machine.causal c.machine in
    if Bg_obs.Causal.enabled g then begin
      (* rank -1 is the control/network scope: attribution charges the
         contribute->complete and complete->deliver legs to the network *)
      let x =
        Bg_obs.Causal.mint_l g ~chain:false complete_label ~rank:(-1) ~core:0 ~now:completion
      in
      List.iter
        (fun src -> Bg_obs.Causal.link g Bg_obs.Causal.Send_recv ~src ~dst:x)
        (List.rev ctxs);
      List.iter
        (fun w ->
          let d =
            Bg_obs.Causal.mint_l g ~chain:true deliver_label ~rank:w.w_rank ~core:0
              ~now:completion
          in
          Bg_obs.Causal.link g Bg_obs.Causal.Send_recv ~src:x ~dst:d)
        (List.rev waiters)
    end

  let create fabric ~participants =
    {
      machine = Dcmf.machine fabric;
      participants;
      acc = 0.0;
      payload = Bytes.empty;
      count = 0;
      first_arrival = 0;
      waiters = [];
      last_latency = 0;
      contrib_ctxs = [];
    }

  let tree_round_trip c =
    let p = c.machine.Machine.params in
    let rec depth d n = if n <= 1 then d else depth (d + 1) ((n + 1) / 2) in
    (2 * depth 0 c.participants * p.Bg_hw.Params.collective_hop_cycles) + 300

  let tree_one_way c =
    let p = c.machine.Machine.params in
    let rec depth d n = if n <= 1 then d else depth (d + 1) ((n + 1) / 2) in
    (depth 0 c.participants * p.Bg_hw.Params.collective_hop_cycles) + 200

  (* One synchronized round: every rank contributes (the closure may update
     [acc] and/or [payload]); when the last arrives, results are delivered
     to every waiter [delay] cycles later. Rounds never overlap because
     every caller blocks until delivery. *)
  let round c ~rank ~contribute ~delay_of =
    Coro.consume 200;
    let sim = c.machine.Machine.sim in
    let w = { w_rank = rank; done_ = false; result = 0.0; pdata = Bytes.empty } in
    if c.count = 0 then c.first_arrival <- Sim.now sim;
    contribute ();
    causal_contribute c ~rank;
    c.count <- c.count + 1;
    c.waiters <- w :: c.waiters;
    if c.count = c.participants then begin
      let result = c.acc and pdata = c.payload in
      let delay = delay_of () in
      let completion = Sim.now sim + delay in
      c.last_latency <- completion - c.first_arrival;
      let waiters = c.waiters in
      let ctxs = c.contrib_ctxs in
      c.acc <- 0.0;
      c.payload <- Bytes.empty;
      c.count <- 0;
      c.waiters <- [];
      c.contrib_ctxs <- [];
      ignore
        (Sim.schedule_at sim completion (fun () ->
             causal_complete c ~ctxs ~completion waiters;
             List.iter
               (fun w ->
                 w.result <- result;
                 w.pdata <- pdata;
                 w.done_ <- true)
               waiters))
    end;
    let rec spin interval =
      if not w.done_ then begin
        Coro.consume interval;
        spin (min 2_000 (interval * 2))
      end
    in
    spin 60;
    w

  let allreduce_sum c t v =
    let w =
      round c ~rank:(rank t)
        ~contribute:(fun () -> c.acc <- c.acc +. v)
        ~delay_of:(fun () -> tree_round_trip c)
    in
    w.result

  let last_latency_cycles c = c.last_latency

  type route = Tree | Torus

  (* Closed-form costs. Tree: hardware combine at link speed, but doubles
     need two integer passes; latency = up+down through the tree. Torus:
     recursive reduce-scatter + allgather, each moving (n-1)/n of the
     vector, striped across the six links; latency = 2(n-1) neighbor hops
     of software-driven steps. *)
  let estimate_vector_cycles c route ~elements =
    let p = c.machine.Machine.params in
    let bytes = 8 * elements in
    let n = c.participants in
    match route with
    | Tree ->
      let latency = tree_round_trip c in
      let bw = p.Bg_hw.Params.collective_link_bytes_per_cycle in
      latency + int_of_float (2.0 *. float_of_int bytes /. bw)
    | Torus ->
      let steps = 2 * max 1 (n - 1) in
      let per_step_sw = 400 in
      let latency =
        steps * (p.Bg_hw.Params.torus_hop_cycles + p.Bg_hw.Params.torus_inject_cycles + per_step_sw)
      in
      let links = 6.0 in
      let moved = 2.0 *. float_of_int (max 1 (n - 1)) /. float_of_int (max 1 n) in
      let bw = links *. p.Bg_hw.Params.torus_link_bytes_per_cycle in
      latency + int_of_float (moved *. float_of_int bytes /. bw)

  let allreduce_vector c t route ~elements v =
    let w =
      round c ~rank:(rank t)
        ~contribute:(fun () -> c.acc <- c.acc +. v)
        ~delay_of:(fun () -> estimate_vector_cycles c route ~elements)
    in
    w.result

  (* All-to-all: total traffic n(n-1) * bytes; roughly half crosses the
     torus bisection, whose capacity on an x*y*z machine is ~ 4*y*z links
     (two cut faces, both ring directions). We approximate with the
     machine's full link count when dims are degenerate. *)
  let alltoall_cycles c ~bytes_per_pair =
    let p = c.machine.Machine.params in
    let n = c.participants in
    let x, y, z = Bg_hw.Torus.dims c.machine.Machine.torus in
    let bisection_links = max 2 (4 * y * z * min 1 (x / 2)) in
    let total = float_of_int (n * (n - 1) * bytes_per_pair) in
    let wire =
      total /. 2.0
      /. (float_of_int bisection_links *. p.Bg_hw.Params.torus_link_bytes_per_cycle)
    in
    let sw = (n - 1) * (p.Bg_hw.Params.torus_inject_cycles + 300) in
    int_of_float wire + sw + (2 * p.Bg_hw.Params.torus_hop_cycles * (x + y + z) / 2)

  (* per-round gathered contributions, keyed by source rank *)
  let alltoall c t ~bytes_per_pair v =
    let me = rank t in
    (* stage the contribution into the shared payload slot as a growing
       association list encoded via the acc/payload machinery: simplest is
       a per-coll scratch table rebuilt each round *)
    let w =
      round c ~rank:me
        ~contribute:(fun () ->
          let prev =
            if Bytes.length c.payload = 0 then []
            else Marshal.from_bytes c.payload 0
          in
          c.payload <- Marshal.to_bytes ((me, v) :: prev) [])
        ~delay_of:(fun () -> alltoall_cycles c ~bytes_per_pair)
    in
    let contributions : (int * int) list = Marshal.from_bytes w.pdata 0 in
    List.sort compare contributions |> List.map snd

  let bcast c t ~root data =
    let me = rank t in
    let w =
      round c ~rank:me
        ~contribute:(fun () -> if me = root then c.payload <- Bytes.copy data)
        ~delay_of:(fun () -> tree_one_way c)
    in
    Bytes.copy w.pdata

  let reduce_sum c t ~root v =
    let me = rank t in
    let w =
      round c ~rank:me
        ~contribute:(fun () -> c.acc <- c.acc +. v)
        ~delay_of:(fun () -> tree_one_way c)
    in
    if me = root then Some w.result else None
end
