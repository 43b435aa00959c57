open Bg_engine

(* Passive, like the rest of the observability layer: no events, no RNG,
   no architectural trace. Ids come from folding a seed and a mint
   counter through FNV, so a graph is a pure function of the seed and
   the (deterministic) simulation — never of wall-clock time. *)

type ctx = int

let none = 0

type kind = Send_recv | Inject_complete | Request_reply | Parent_child

let kind_name = function
  | Send_recv -> "send->recv"
  | Inject_complete -> "inject->complete"
  | Request_reply -> "request->reply"
  | Parent_child -> "parent->child"

let kind_code = function
  | Send_recv -> 0
  | Inject_complete -> 1
  | Request_reply -> 2
  | Parent_child -> 3

type node = {
  id : ctx;
  cat : string;
  name : string;
  rank : int;
  core : int;
  at : Cycles.t;
}

type edge = { kind : kind; src : ctx; dst : ctx }

type t = {
  mutable enabled : bool;
  seed : int;
  seed_prefix : Fnv.t;  (* [Fnv.add_int Fnv.empty seed], folded once *)
  max_nodes : int;
  by_id : (ctx, node) Hashtbl.t;
  mutable nodes_rev : node list;
  mutable edges_rev : edge list;
  mutable n_nodes : int;
  mutable n_edges : int;
  mutable minted : int;  (* feeds the id stream; never reused *)
  mutable dropped : int;
  tails : (int * int, ctx) Hashtbl.t;  (* (rank, core) -> last minted node *)
  mutable digest : Fnv.t;
}

let create ?(seed = 1) ?(max_nodes = 262_144) ?(enabled = false) () =
  if max_nodes <= 0 then invalid_arg "Causal.create: max_nodes";
  {
    enabled;
    seed;
    seed_prefix = Fnv.add_int Fnv.empty seed;
    max_nodes;
    by_id = Hashtbl.create 256;
    nodes_rev = [];
    edges_rev = [];
    n_nodes = 0;
    n_edges = 0;
    minted = 0;
    dropped = 0;
    tails = Hashtbl.create 16;
    digest = Fnv.empty;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let reset t =
  Hashtbl.reset t.by_id;
  Hashtbl.reset t.tails;
  t.nodes_rev <- [];
  t.edges_rev <- [];
  t.n_nodes <- 0;
  t.n_edges <- 0;
  t.minted <- 0;
  t.dropped <- 0;
  t.digest <- Fnv.empty

(* Deterministic non-zero id: FNV(seed, counter), masked positive. A
   collision with a live id (astronomically unlikely but cheap to rule
   out) just advances the counter. *)
let fresh_id t =
  let rec go () =
    t.minted <- t.minted + 1;
    let h = Fnv.add_int t.seed_prefix t.minted in
    let id = Int64.to_int h land max_int in
    if id = none || Hashtbl.mem t.by_id id then go () else id
  in
  go ()

let record_edge t kind ~src ~dst =
  t.edges_rev <- { kind; src; dst } :: t.edges_rev;
  t.n_edges <- t.n_edges + 1;
  let d = Fnv.add_int t.digest (kind_code kind) in
  let d = Fnv.add_int d src in
  t.digest <- Fnv.add_int d dst

let link t kind ~src ~dst =
  if
    t.enabled && src <> none && dst <> none
    && Hashtbl.mem t.by_id src && Hashtbl.mem t.by_id dst
  then record_edge t kind ~src ~dst

let mint t ?(chain = true) ~cat ~name ~rank ~core ~now () =
  if not t.enabled then none
  else if t.n_nodes >= t.max_nodes then begin
    t.dropped <- t.dropped + 1;
    none
  end
  else begin
    let id = fresh_id t in
    let n = { id; cat; name; rank; core; at = now } in
    Hashtbl.add t.by_id id n;
    t.nodes_rev <- n :: t.nodes_rev;
    t.n_nodes <- t.n_nodes + 1;
    let d = Fnv.add_int t.digest id in
    let d = Fnv.add_string d cat in
    let d = Fnv.add_string d name in
    let d = Fnv.add_int d rank in
    let d = Fnv.add_int d core in
    t.digest <- Fnv.add_int d now;
    (if chain then
       match Hashtbl.find_opt t.tails (rank, core) with
       | Some prev -> record_edge t Parent_child ~src:prev ~dst:id
       | None -> ());
    Hashtbl.replace t.tails (rank, core) id;
    id
  end

let node_count t = t.n_nodes
let edge_count t = t.n_edges
let dropped t = t.dropped
let nodes t = List.rev t.nodes_rev
let edges t = List.rev t.edges_rev
let find t id = Hashtbl.find_opt t.by_id id

let last_matching t ~cat ~name =
  let rec go = function
    | [] -> None
    | n :: rest -> if n.cat = cat && n.name = name then Some n.id else go rest
  in
  go t.nodes_rev

let digest t = t.digest

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i t.seed;
  w_i t.max_nodes;
  w_i t.n_nodes;
  w_i t.n_edges;
  w_i t.minted;
  w_i t.dropped;
  Buffer.add_int64_le b t.digest;
  (* nodes and edges are already folded into the digest; only the
     per-scope chaining tails add restart-relevant state beyond it *)
  let tails =
    Hashtbl.fold (fun k id acc -> (k, id) :: acc) t.tails [] |> List.sort compare
  in
  w_i (List.length tails);
  List.iter
    (fun ((rank, core), id) ->
      w_i rank;
      w_i core;
      w_i id)
    tails

(* --- critical path ----------------------------------------------------- *)

(* Follow the latest-arriving predecessor backward: at each node, the
   in-edge whose source has the greatest [at] is the dependency that
   actually gated progress (ties break toward the earliest-recorded
   edge, a deterministic order). *)
let critical_path t target =
  match Hashtbl.find_opt t.by_id target with
  | None -> []
  | Some tn ->
    let preds = Hashtbl.create 64 in
    (* edges_rev is newest first; iterate oldest-first so the earliest-
       recorded edge wins ties via the strict [>] below *)
    List.iter
      (fun e ->
        match Hashtbl.find_opt t.by_id e.src with
        | None -> ()
        | Some sn -> (
          match Hashtbl.find_opt preds e.dst with
          | Some (best : node) when sn.at <= best.at -> ()
          | _ -> Hashtbl.replace preds e.dst sn))
      (List.rev t.edges_rev)
    |> ignore;
    let visited = Hashtbl.create 64 in
    let rec walk acc (n : node) =
      if Hashtbl.mem visited n.id then acc
      else begin
        Hashtbl.add visited n.id ();
        match Hashtbl.find_opt preds n.id with
        | Some p when p.at <= n.at -> walk (n :: acc) p
        | _ -> n :: acc
      end
    in
    walk [] tn

(* --- path attribution -------------------------------------------------- *)

type attribution = {
  total : int;
  ledger : (Accounting.state * int) list;
  network : int;
  per_rank : (int * int) list;
  straggler : int;
  dominant : string;
}

(* Split [d] cycles across weighted states with largest-remainder
   rounding, so the parts sum to [d] exactly. Weights of zero total fall
   back entirely to App — an unledgered core's time is app time. *)
let split_by_weights d (weights : (Accounting.state * int) list) =
  let wtot = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  if d = 0 then []
  else if wtot = 0 then [ (Accounting.App, d) ]
  else begin
    let raw =
      List.map
        (fun (st, w) ->
          let num = d * w in
          (st, num / wtot, num mod wtot))
        weights
    in
    let floor_sum = List.fold_left (fun a (_, q, _) -> a + q) 0 raw in
    let leftover = d - floor_sum in
    (* hand the leftover cycles to the largest remainders; ties resolve
       by state order, which is fixed *)
    let order =
      List.mapi (fun i (st, q, r) -> (i, st, q, r)) raw
      |> List.sort (fun (i, _, _, ra) (j, _, _, rb) ->
             if ra <> rb then compare rb ra else compare i j)
    in
    let bumped =
      List.mapi (fun pos (i, st, q, _) -> (i, st, if pos < leftover then q + 1 else q)) order
      |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
    in
    List.filter_map (fun (_, st, q) -> if q > 0 then Some (st, q) else None) bumped
  end

let attribute_path t acct path =
  ignore t;
  let entries = Accounting.entries acct in
  let weights_for ~rank ~core =
    let of_entry (e : Accounting.entry) =
      List.map (fun st -> (st, Accounting.cycles e st)) Accounting.all_states
    in
    match
      List.find_opt (fun (e : Accounting.entry) -> e.rank = rank && e.core = core) entries
    with
    | Some e -> of_entry e
    | None ->
      let mine = List.filter (fun (e : Accounting.entry) -> e.rank = rank) entries in
      if mine = [] then []
      else Accounting.totals mine
  in
  let ledger_acc = Hashtbl.create 8 in
  let rank_acc = Hashtbl.create 8 in
  let bump tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + v
    | None -> Hashtbl.add tbl k (ref v)
  in
  let network = ref 0 in
  let rec segments = function
    | a :: (b :: _ as rest) ->
      let d = max 0 (b.at - a.at) in
      (if a.rank <> b.rank || a.rank < 0 || b.rank < 0 then network := !network + d
       else begin
         bump rank_acc a.rank d;
         List.iter (fun (st, c) -> bump ledger_acc st c)
           (split_by_weights d (weights_for ~rank:b.rank ~core:b.core))
       end);
      segments rest
    | _ -> ()
  in
  segments path;
  let total =
    match (path, List.rev path) with
    | first :: _, last :: _ -> max 0 (last.at - first.at)
    | _ -> 0
  in
  let ledger =
    List.map
      (fun st ->
        (st, match Hashtbl.find_opt ledger_acc st with Some r -> !r | None -> 0))
      Accounting.all_states
  in
  let per_rank =
    Hashtbl.fold (fun r c acc -> (r, !c) :: acc) rank_acc []
    |> List.sort compare
  in
  let straggler =
    List.fold_left
      (fun (br, bc) (r, c) -> if c > bc then (r, c) else (br, bc))
      (-1, 0) per_rank
    |> fst
  in
  let dominant =
    let buckets =
      ("network", !network)
      :: List.map (fun (st, c) -> (Accounting.state_name st, c)) ledger
    in
    List.fold_left
      (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
      ("none", 0) buckets
    |> fst
  in
  { total; ledger; network = !network; per_rank; straggler; dominant }

let pp_attribution ppf a =
  Format.fprintf ppf "path %d cycles: network %d" a.total a.network;
  List.iter
    (fun (st, c) ->
      if c > 0 then Format.fprintf ppf ", %s %d" (Accounting.state_name st) c)
    a.ledger;
  Format.fprintf ppf "; straggler rank %d, dominant %s" a.straggler a.dominant
