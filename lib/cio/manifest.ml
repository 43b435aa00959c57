module Itbl = Hashtbl.Make (Int)

(* [frame = None] marks an acked entry: the reply bytes are reclaimed but
   [seq] stays behind as a watermark, so a request copy the network
   reordered behind its own Ack is still recognised as a duplicate. *)
type cached_reply = { seq : int; frame : bytes option }

(* One rank's share of the three records, each keyed by pid. They are
   kept apart because a straggler request can leave a proxy snapshot or a
   cached reply for a pid that was never (or is no longer) listed. *)
type rank_entry = {
  procs : unit Itbl.t;
  proxies : Ioproxy.snapshot Itbl.t;
  replies : cached_reply Itbl.t Itbl.t;  (* pid -> tid -> reply *)
}

(* Rank first, so job teardown drops one entry. *)
type t = rank_entry Itbl.t

let create () = Itbl.create 16

let rank_entry t rank =
  match Itbl.find_opt t rank with
  | Some e -> e
  | None ->
    let e = { procs = Itbl.create 4; proxies = Itbl.create 4; replies = Itbl.create 4 } in
    Itbl.add t rank e;
    e

let add_proc t ~rank ~pid = Itbl.replace (rank_entry t rank).procs pid ()

(* [(rank, x)] for every rank and every [x] [select] draws from its
   entry, sorted by rank then by [x]. *)
let sorted_by_rank t select =
  Itbl.fold (fun rank e acc -> (rank, e) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map (fun (rank, e) -> List.map (fun x -> (rank, x)) (select e))

(* A pid- or tid-keyed table's bindings, by key. *)
let sorted_by_key tbl =
  Itbl.fold (fun pid v acc -> (pid, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let procs t = sorted_by_rank t (fun e -> List.map fst (sorted_by_key e.procs))

let record_proxy t ~rank ~pid snap = Itbl.replace (rank_entry t rank).proxies pid snap

let proxy_snapshot t ~rank ~pid =
  match Itbl.find_opt t rank with Some e -> Itbl.find_opt e.proxies pid | None -> None

let reply_table t ~rank ~pid =
  match Itbl.find_opt t rank with Some e -> Itbl.find_opt e.replies pid | None -> None

let record_reply t ~rank ~pid ~tid ~seq ~frame =
  let by_tid =
    match reply_table t ~rank ~pid with
    | Some by_tid -> by_tid
    | None ->
      let by_tid = Itbl.create 4 in
      Itbl.add (rank_entry t rank).replies pid by_tid;
      by_tid
  in
  Itbl.replace by_tid tid { seq; frame = Some frame }

let last_reply t ~rank ~pid ~tid =
  match reply_table t ~rank ~pid with
  | None -> None
  | Some by_tid -> (
    match Itbl.find_opt by_tid tid with
    | Some { seq; frame } -> Some (seq, frame)
    | None -> None)

let retire_reply t ~rank ~pid ~tid ~seq =
  match reply_table t ~rank ~pid with
  | None -> ()
  | Some by_tid -> (
    match Itbl.find_opt by_tid tid with
    | Some c when c.seq = seq -> Itbl.replace by_tid tid { c with frame = None }
    | _ -> ())

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let procs = procs t in
  w_i (List.length procs);
  List.iter
    (fun (rank, pid) ->
      w_i rank;
      w_i pid)
    procs;
  let proxies = sorted_by_rank t (fun e -> sorted_by_key e.proxies) in
  w_i (List.length proxies);
  List.iter
    (fun (rank, (pid, snap)) ->
      w_i rank;
      w_i pid;
      Ioproxy.capture_snapshot snap b)
    proxies;
  let replies =
    sorted_by_rank t (fun e ->
        List.concat_map
          (fun (pid, by_tid) -> List.map (fun (tid, c) -> (pid, tid, c)) (sorted_by_key by_tid))
          (sorted_by_key e.replies))
  in
  w_i (List.length replies);
  List.iter
    (fun (rank, (pid, tid, c)) ->
      w_i rank;
      w_i pid;
      w_i tid;
      w_i c.seq;
      match c.frame with
      | None -> Buffer.add_uint8 b 0
      | Some frame ->
        Buffer.add_uint8 b 1;
        w_i (Bytes.length frame);
        Buffer.add_int64_le b (Bg_engine.Fnv.add_bytes Bg_engine.Fnv.empty frame))
    replies

let remove_rank t ~rank = Itbl.remove t rank
