open Bg_engine
module Obs = Bg_obs.Obs

(* Trace and span labels, declared once (see [Fnv.Label]). *)
module L = struct
  let crash = Trace.label "ciod.crash"
  let restart = Trace.label "ciod.restart"
  let served = Trace.label "ciod.served"
  let job_start = Obs.label ~cat:"cio" ~name:"job_start"
  let job_end = Obs.label ~cat:"cio" ~name:"job_end"
  let queue_wait = Obs.label ~cat:"cio" ~name:"queue_wait"
  let transit_reply = Obs.label ~cat:"cio" ~name:"transit_reply"
end

(* I/O-node worker activity appears in the trace under the requesting
   rank's pid, on tid lanes [worker_tid_base + worker] so CIOD service
   never collides with the rank's own core lanes. *)
let worker_tid_base = 16

module Itbl = Hashtbl.Make (Int)

type t = {
  machine : Machine.t;
  fs : Fs.t;
  io_node : int;
  config : Reliable.config;
  manifest : Manifest.t;
  proxies : Ioproxy.t Itbl.t Itbl.t;  (* rank -> pid -> proxy *)
  deliver : (int, bytes -> unit) Hashtbl.t;    (* rank -> reply delivery *)
  worker_busy : Cycles.t array;                 (* 4 I/O-node cores *)
  (* in-flight service events, cancellable on crash *)
  inflight : (int, Event_queue.handle) Hashtbl.t;
  mutable inflight_next : int;
  (* (rank, pid, tid) -> seq of the request currently being serviced, so a
     retransmission that lands before the original finishes is not
     executed a second time *)
  executing : (int * int * int, int) Hashtbl.t;
  mutable alive : bool;
  mutable served : int;
  mutable retransmits_seen : int;
  mutable queue_rejects : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable restart_subscribers : (unit -> unit) list;
}

(* Linux-side service cost: syscall entry + VFS + wakeup of the proxy. *)
let base_service_cycles = 3400 (* ~4 us *)
let per_byte_cycles = 0.25

let create machine ?fs ?(config = Reliable.off) ~io_node () =
  Reliable.validate config;
  let fs = match fs with Some f -> f | None -> Fs.create () in
  {
    machine;
    fs;
    io_node;
    config;
    manifest = Manifest.create ();
    proxies = Itbl.create 64;
    deliver = Hashtbl.create 64;
    worker_busy = Array.make 4 0;
    inflight = Hashtbl.create 16;
    inflight_next = 0;
    executing = Hashtbl.create 16;
    alive = true;
    served = 0;
    retransmits_seen = 0;
    queue_rejects = 0;
    crashes = 0;
    restarts = 0;
    restart_subscribers = [];
  }

let fs t = t.fs
let io_node t = t.io_node
let config t = t.config
let manifest t = t.manifest
let alive t = t.alive

let register_node t ~rank ~deliver = Hashtbl.replace t.deliver rank deliver

(* A rank's proxy table outlives its jobs: job end empties it in place. *)
let rank_proxies t rank =
  match Itbl.find t.proxies rank with
  | by_pid -> by_pid
  | exception Not_found ->
    let by_pid = Itbl.create 4 in
    Itbl.add t.proxies rank by_pid;
    by_pid

let proxy t ~rank ~pid =
  let by_pid = rank_proxies t rank in
  match Itbl.find by_pid pid with
  | p -> p
  | exception Not_found ->
    let p = Ioproxy.create t.fs ~rank ~pid in
    Itbl.add by_pid pid p;
    p

let obs t = t.machine.Machine.obs

let count t m = Obs.add (obs t) ~rank:t.io_node ~core:Obs.node_scope m 1

let depth_gauge t =
  Obs.set (obs t) ~rank:t.io_node ~core:Obs.node_scope Metrics.Ciod.queue_depth
    (Hashtbl.length t.inflight)

let mark t ~rank label =
  let now = Sim.now t.machine.Machine.sim in
  Obs.span_record_l (obs t) label ~rank ~core:worker_tid_base ~start:now ~finish:now

let rec start_procs t rank = function
  | [] -> ()
  | pid :: rest ->
    let p = proxy t ~rank ~pid in
    Manifest.add_proc t.manifest ~rank ~pid;
    Manifest.record_proxy t.manifest ~rank ~pid (Ioproxy.snapshot p);
    start_procs t rank rest

let job_start t ~rank ~pids =
  mark t ~rank L.job_start;
  start_procs t rank pids

let job_end t ~rank =
  mark t ~rank L.job_end;
  (match Itbl.find t.proxies rank with
  | by_pid ->
    Itbl.iter (fun _ p -> Ioproxy.close_all p) by_pid;
    Itbl.clear by_pid
  | exception Not_found -> ());
  Manifest.remove_rank t.manifest ~rank

let request_cost req =
  let data_bytes =
    match req with
    | Sysreq.Write { data; _ } | Sysreq.Pwrite { data; _ } -> Bytes.length data
    | Sysreq.Read { len; _ } | Sysreq.Pread { len; _ } -> len
    | _ -> 0
  in
  base_service_cycles + int_of_float (per_byte_cycles *. float_of_int data_bytes)

let pick_worker t now =
  (* Earliest-free I/O-node core; index breaks ties deterministically. *)
  let best = ref 0 in
  for i = 1 to Array.length t.worker_busy - 1 do
    if t.worker_busy.(i) < t.worker_busy.(!best) then best := i
  done;
  let start = max now t.worker_busy.(!best) in
  (!best, start)

(* --- legacy (lossless) path ------------------------------------------
   Kept bit-for-bit: with the reliability layer off, every trace emit,
   span, and schedule below matches the pre-reliability protocol. *)

let submit_raw t data =
  let sim = t.machine.Machine.sim in
  let o = obs t in
  let hdr, req =
    match Proto.decode_request data with
    | Ok v -> v
    | Error e -> failwith ("Proto.decode_request: " ^ Proto.error_message e)
  in
  let p = proxy t ~rank:hdr.Proto.rank ~pid:hdr.Proto.pid in
  let now = Sim.now sim in
  let worker, start = pick_worker t now in
  let finish = start + request_cost req in
  t.worker_busy.(worker) <- finish;
  (* Round-trip breakdown, parts 2 and 3: time queued behind earlier
     requests on the I/O node's cores, then the Linux-side service. Both
     intervals are fully determined here, so they are recorded one-shot. *)
  if Obs.enabled o then begin
    let lane = worker_tid_base + worker in
    if start > now then
      Obs.span_record_l o L.queue_wait ~rank:hdr.Proto.rank ~core:lane
        ~start:now ~finish:start;
    Obs.span_record_l o (Sysreq.service_label req) ~rank:hdr.Proto.rank ~core:lane ~start ~finish;
    Obs.observe o ~rank:hdr.Proto.rank ~core:Obs.node_scope Metrics.Cio.service_cycles
      (finish - start);
    Obs.observe o ~rank:hdr.Proto.rank ~core:Obs.node_scope Metrics.Cio.queue_wait_cycles
      (start - now)
  end;
  ignore
    (Sim.schedule_at sim finish (fun () ->
         t.served <- t.served + 1;
         count t Metrics.Ciod.served;
         Sim.emit sim ~label:L.served ~value:hdr.Proto.rank;
         let reply = Ioproxy.handle p req in
         Manifest.record_proxy t.manifest ~rank:hdr.Proto.rank ~pid:hdr.Proto.pid
           (Ioproxy.snapshot p);
         let reply_bytes = Proto.encode_reply hdr reply in
         (* part 4: the reply's trip back down the collective network *)
         let hr =
           Obs.span_begin_l o L.transit_reply ~rank:hdr.Proto.rank
             ~core:(worker_tid_base + worker) ~now:(Sim.now sim)
         in
         Bg_hw.Collective_net.to_compute_node t.machine.Machine.collective
           ~cn:hdr.Proto.rank ~payload:reply_bytes
           ~on_arrival:(fun ~payload ~arrival_cycle:_ ->
             Obs.span_end o hr ~now:(Sim.now sim);
             match Hashtbl.find_opt t.deliver hdr.Proto.rank with
             | Some deliver -> deliver payload
             | None -> ())))

(* --- reliable path ---------------------------------------------------- *)

let send_down t ~rank framed =
  let sim = t.machine.Machine.sim in
  let o = obs t in
  let sent = Sim.now sim in
  Bg_hw.Collective_net.to_compute_node t.machine.Machine.collective ~cn:rank
    ~payload:framed
    ~on_arrival:(fun ~payload ~arrival_cycle ->
      (* Recorded one-shot at arrival: a dropped reply must not leak an
         open span. *)
      Obs.span_record_l o L.transit_reply ~rank ~core:worker_tid_base
        ~start:sent ~finish:arrival_cycle;
      match Hashtbl.find_opt t.deliver rank with
      | Some deliver -> deliver payload
      | None -> ())

let service t (f : Frame.t) req =
  let sim = t.machine.Machine.sim in
  let o = obs t in
  let now = Sim.now sim in
  let worker, start = pick_worker t now in
  let finish = start + request_cost req in
  t.worker_busy.(worker) <- finish;
  let key = t.inflight_next in
  t.inflight_next <- key + 1;
  let exec_key = (f.Frame.rank, f.Frame.pid, f.Frame.tid) in
  Hashtbl.replace t.executing exec_key f.Frame.seq;
  let handle =
    Sim.schedule_at sim finish (fun () ->
        Hashtbl.remove t.inflight key;
        Hashtbl.remove t.executing exec_key;
        depth_gauge t;
        t.served <- t.served + 1;
        count t Metrics.Ciod.served;
        Sim.emit sim ~label:L.served ~value:f.Frame.rank;
        if Obs.enabled o then begin
          let lane = worker_tid_base + worker in
          if start > now then
            Obs.span_record_l o L.queue_wait ~rank:f.Frame.rank
              ~core:lane ~start:now ~finish:start;
          Obs.span_record_l o (Sysreq.service_label req) ~rank:f.Frame.rank ~core:lane ~start
            ~finish;
          Obs.observe o ~rank:f.Frame.rank ~core:Obs.node_scope Metrics.Cio.service_cycles
            (finish - start);
          Obs.observe o ~rank:f.Frame.rank ~core:Obs.node_scope Metrics.Cio.queue_wait_cycles
            (start - now)
        end;
        (* Execute, snapshot, cache, reply — atomically within this event,
           so a crash either sees the request fully applied (and replayable
           from the cache) or not at all. *)
        let p = proxy t ~rank:f.Frame.rank ~pid:f.Frame.pid in
        let reply = Ioproxy.handle p req in
        let hdr = { Proto.rank = f.Frame.rank; pid = f.Frame.pid; tid = f.Frame.tid } in
        (* Causal: one service node per EXECUTION, linked from the
           request context the frame carried. Duplicate frames never
           reach here (the suppression branches in [submit_reliable]
           record nothing), so at-most-once shows exactly one
           request->reply edge per seq. The service node rides the reply
           frame down so the CNK side can hang the delivery off it. *)
        let causal = t.machine.Machine.causal in
        let service_ctx =
          let module C = Bg_obs.Causal in
          if C.enabled causal then begin
            let s =
              C.mint_l causal ~chain:false (Sysreq.service_label req) ~rank:f.Frame.rank
                ~core:(worker_tid_base + worker) ~now:finish
            in
            C.link causal C.Request_reply ~src:f.Frame.ctx ~dst:s;
            s
          end
          else Bg_obs.Causal.none
        in
        let framed =
          Frame.encode
            {
              Frame.kind = Frame.Reply;
              rank = f.Frame.rank;
              pid = f.Frame.pid;
              tid = f.Frame.tid;
              seq = f.Frame.seq;
              ctx = service_ctx;
              payload = Proto.encode_reply hdr reply;
            }
        in
        Manifest.record_proxy t.manifest ~rank:f.Frame.rank ~pid:f.Frame.pid
          (Ioproxy.snapshot p);
        Manifest.record_reply t.manifest ~rank:f.Frame.rank ~pid:f.Frame.pid
          ~tid:f.Frame.tid ~seq:f.Frame.seq ~frame:framed;
        send_down t ~rank:f.Frame.rank framed)
  in
  Hashtbl.replace t.inflight key handle;
  depth_gauge t

let submit_reliable t data =
  match Frame.decode data with
  | Error Frame.Corrupt -> count t Metrics.Ciod.corrupt_frames
  | Error (Frame.Malformed _) -> count t Metrics.Ciod.malformed
  | Ok f -> (
    match f.Frame.kind with
    | Frame.Ack ->
      Manifest.retire_reply t.manifest ~rank:f.Frame.rank ~pid:f.Frame.pid
        ~tid:f.Frame.tid ~seq:f.Frame.seq
    | Frame.Reply ->
      (* replies never flow up the tree *)
      count t Metrics.Ciod.malformed
    | Frame.Request -> (
      match
        Manifest.last_reply t.manifest ~rank:f.Frame.rank ~pid:f.Frame.pid
          ~tid:f.Frame.tid
      with
      | Some (seq, Some cached) when seq = f.Frame.seq ->
        (* Duplicate of an already-executed request: replay the cached
           reply, do NOT re-execute (a re-run write would double-append). *)
        t.retransmits_seen <- t.retransmits_seen + 1;
        count t Metrics.Ciod.retransmit_seen;
        send_down t ~rank:f.Frame.rank cached
      | Some (seq, None) when seq = f.Frame.seq ->
        (* Executed AND acked: the Ack reclaimed the cached frame but left
           [seq] behind as a watermark. A request copy the network
           reordered behind its own Ack lands here and is dropped — the
           sender is no longer waiting, and re-executing would apply the
           side effects twice. *)
        t.retransmits_seen <- t.retransmits_seen + 1;
        count t Metrics.Ciod.retransmit_seen
      | Some (seq, _) when f.Frame.seq < seq ->
        (* Stale straggler from before the cached request; the sender has
           long since moved on. *)
        t.retransmits_seen <- t.retransmits_seen + 1;
        count t Metrics.Ciod.retransmit_seen
      | _ ->
        if
          Hashtbl.find_opt t.executing (f.Frame.rank, f.Frame.pid, f.Frame.tid)
          = Some f.Frame.seq
        then begin
          (* Duplicate of a request still being serviced: the reply in
             flight will answer both copies; executing again would apply
             the side effects twice. *)
          t.retransmits_seen <- t.retransmits_seen + 1;
          count t Metrics.Ciod.retransmit_seen
        end
        else if Hashtbl.length t.inflight >= t.config.Reliable.queue_limit then begin
          (* Bounded worker queue: shed load; the sender's timeout
             re-drives the request. *)
          t.queue_rejects <- t.queue_rejects + 1;
          count t Metrics.Ciod.queue_rejects
        end
        else (
          match Proto.decode_request f.Frame.payload with
          | Error _ -> count t Metrics.Ciod.malformed
          | Ok (_hdr, req) -> service t f req)))

let submit t data =
  (* A dead daemon services nothing on either transport: with the
     reliability layer off a crash must read as message loss, not as a
     fresh proxy answering EBADF. *)
  if not t.alive then count t Metrics.Ciod.dropped_dead
  else if t.config.Reliable.enabled then submit_reliable t data
  else submit_raw t data

(* --- crash / restart --------------------------------------------------- *)

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.crashes <- t.crashes + 1;
    count t Metrics.Ciod.crashes;
    Sim.emit t.machine.Machine.sim ~label:L.crash ~value:t.io_node;
    (* Queued work and all daemon-resident state die with the process.
       The manifest survives: it models control-system storage. *)
    Hashtbl.iter (fun _ h -> Sim.cancel t.machine.Machine.sim h) t.inflight;
    Hashtbl.reset t.inflight;
    Hashtbl.reset t.executing;
    depth_gauge t;
    Itbl.reset t.proxies;
    Array.fill t.worker_busy 0 (Array.length t.worker_busy) 0
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
    count t Metrics.Ciod.restarts;
    Sim.emit t.machine.Machine.sim ~label:L.restart ~value:t.io_node;
    (* Rebuild every proxy from its manifest snapshot; descriptors, offsets
       and cwd come back exactly as of the last executed request. *)
    List.iter
      (fun (rank, pid) ->
        let p =
          match Manifest.proxy_snapshot t.manifest ~rank ~pid with
          | Some snap -> Ioproxy.restore t.fs ~rank ~pid snap
          | None -> Ioproxy.create t.fs ~rank ~pid
        in
        Itbl.replace (rank_proxies t rank) pid p)
      (Manifest.procs t.manifest);
    t.restarts <- t.restarts + 1;
    List.iter (fun f -> f ()) t.restart_subscribers
  end

let on_restart t f = t.restart_subscribers <- f :: t.restart_subscribers
let restarts t = t.restarts

let requests_served t = t.served
let retransmits_seen t = t.retransmits_seen
let queue_rejects t = t.queue_rejects
let crashes t = t.crashes
let queue_depth t = Hashtbl.length t.inflight
let proxy_count t = Itbl.fold (fun _ by_pid n -> n + Itbl.length by_pid) t.proxies 0

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.io_node;
  Buffer.add_uint8 b (if t.alive then 1 else 0);
  w_i t.served;
  w_i t.retransmits_seen;
  w_i t.queue_rejects;
  w_i t.crashes;
  w_i t.inflight_next;
  w_i (Array.length t.worker_busy);
  Array.iter w_i t.worker_busy;
  let inflight = Hashtbl.fold (fun k _ acc -> k :: acc) t.inflight [] |> List.sort compare in
  w_i (List.length inflight);
  List.iter w_i inflight;
  let executing =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.executing [] |> List.sort compare
  in
  w_i (List.length executing);
  List.iter
    (fun ((rank, pid, tid), seq) ->
      w_i rank;
      w_i pid;
      w_i tid;
      w_i seq)
    executing;
  let proxies =
    Itbl.fold
      (fun rank by_pid acc -> Itbl.fold (fun pid p acc -> ((rank, pid), p) :: acc) by_pid acc)
      t.proxies []
    |> List.sort (fun (k, _) (k', _) -> compare k k')
  in
  w_i (List.length proxies);
  List.iter
    (fun ((rank, pid), p) ->
      w_i rank;
      w_i pid;
      Ioproxy.capture p b)
    proxies;
  let ranks = Hashtbl.fold (fun r _ acc -> r :: acc) t.deliver [] |> List.sort compare in
  w_i (List.length ranks);
  List.iter w_i ranks;
  Manifest.capture t.manifest b;
  Fs.capture t.fs b
