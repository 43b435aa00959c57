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

(* Storage is struct-of-arrays: node [i] (mint order) is slot [i] of the
   six node columns, edge [e] (record order) slot [e] of the three edge
   columns, whose ends are node indices. Each column is a spine of
   fixed-size chunks; a full column gets one more chunk, so no slot is
   ever copied and growth never holds an old and a new copy of a column
   at once, which a doubling array does at every resize. Records are
   built only when [nodes], [edges], [find] or [critical_path] ask. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Append a chunk to a spine whose chunks are all full; only the spine,
   one pointer per chunk, is ever copied. *)
let add_chunk spine fill =
  let k = Array.length spine in
  let grown = Array.make (k + 1) [||] in
  Array.blit spine 0 grown 0 k;
  grown.(k) <- Array.make chunk_size fill;
  grown

let initial_slots = 16

type t = {
  mutable enabled : bool;
  seed : int;
  seed_prefix : Fnv.t;  (* [Fnv.add_int Fnv.empty seed], folded once *)
  max_nodes : int;
  (* node columns *)
  mutable ids : int array array;
  mutable cats : string array array;
  mutable names : string array array;
  mutable ranks : int array array;
  mutable cores : int array array;
  mutable ats : int array array;
  (* edge columns *)
  mutable kinds : kind array array;
  mutable srcs : int array array;
  mutable dsts : int array array;
  (* id -> node index, open addressing with linear probing; [-1] is an
     empty slot. Ids are FNV outputs, so their low bits already spread
     and index the table directly. At most half full. *)
  mutable slots : int array;
  mutable n_nodes : int;
  mutable n_edges : int;
  mutable minted : int;  (* feeds the id stream; never reused *)
  mutable dropped : int;
  tails : int ref Scope_tbl.t;  (* (rank, core) -> index of its last minted node *)
  mutable digest : Fnv.t;
}

let create ?(seed = 1) ?(max_nodes = 262_144) ?(enabled = false) () =
  if max_nodes <= 0 then invalid_arg "Causal.create: max_nodes";
  {
    enabled;
    seed;
    seed_prefix = Fnv.add_int Fnv.empty seed;
    max_nodes;
    ids = [||];
    cats = [||];
    names = [||];
    ranks = [||];
    cores = [||];
    ats = [||];
    kinds = [||];
    srcs = [||];
    dsts = [||];
    slots = Array.make initial_slots (-1);
    n_nodes = 0;
    n_edges = 0;
    minted = 0;
    dropped = 0;
    tails = Scope_tbl.create 16;
    digest = Fnv.empty;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let reset t =
  t.ids <- [||];
  t.cats <- [||];
  t.names <- [||];
  t.ranks <- [||];
  t.cores <- [||];
  t.ats <- [||];
  t.kinds <- [||];
  t.srcs <- [||];
  t.dsts <- [||];
  t.slots <- Array.make initial_slots (-1);
  Scope_tbl.reset t.tails;
  t.n_nodes <- 0;
  t.n_edges <- 0;
  t.minted <- 0;
  t.dropped <- 0;
  t.digest <- Fnv.empty

let node_id t i = t.ids.(i lsr chunk_bits).(i land chunk_mask)
let node_at_cycle t i = t.ats.(i lsr chunk_bits).(i land chunk_mask)

(* --- id table ----------------------------------------------------------- *)

let rec probe t id i =
  let s = t.slots.(i) in
  if s < 0 || node_id t s = id then s else probe t id ((i + 1) land (Array.length t.slots - 1))

(* Node index of [id], or [-1]. *)
let index_of t id = if id = none then -1 else probe t id (id land (Array.length t.slots - 1))

let rec place slots id i =
  if slots.(i) < 0 then i else place slots id ((i + 1) land (Array.length slots - 1))

let insert_index t id i =
  if 2 * (i + 1) > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) (-1) in
    for j = 0 to i - 1 do
      let jd = node_id t j in
      slots.(place slots jd (jd land (Array.length slots - 1))) <- j
    done;
    t.slots <- slots
  end;
  t.slots.(place t.slots id (id land (Array.length t.slots - 1))) <- i

(* --- recording ---------------------------------------------------------- *)

(* Deterministic non-zero id: FNV(seed, counter), masked positive. A
   collision with a live id (astronomically unlikely but cheap to rule
   out) just advances the counter. *)
let rec fresh_id t =
  t.minted <- t.minted + 1;
  let id = Int64.to_int (Fnv.add_int t.seed_prefix t.minted) land max_int in
  if id = none || index_of t id >= 0 then fresh_id t else id

(* [si] and [di] are node indices. *)
let record_edge t kind ~si ~di =
  let e = t.n_edges in
  if e land chunk_mask = 0 then begin
    t.kinds <- add_chunk t.kinds Send_recv;
    t.srcs <- add_chunk t.srcs 0;
    t.dsts <- add_chunk t.dsts 0
  end;
  let k = e lsr chunk_bits and j = e land chunk_mask in
  t.kinds.(k).(j) <- kind;
  t.srcs.(k).(j) <- si;
  t.dsts.(k).(j) <- di;
  t.n_edges <- e + 1;
  let d = Fnv.add_int t.digest (kind_code kind) in
  let d = Fnv.add_int d (node_id t si) in
  t.digest <- Fnv.add_int d (node_id t di)

let link t kind ~src ~dst =
  if t.enabled then begin
    let si = index_of t src in
    if si >= 0 then begin
      let di = index_of t dst in
      if di >= 0 then record_edge t kind ~si ~di
    end
  end

let mint t ?(chain = true) ~cat ~name ~rank ~core ~now () =
  if not t.enabled then none
  else if t.n_nodes >= t.max_nodes then begin
    t.dropped <- t.dropped + 1;
    none
  end
  else begin
    let id = fresh_id t in
    let i = t.n_nodes in
    if i land chunk_mask = 0 then begin
      t.ids <- add_chunk t.ids 0;
      t.cats <- add_chunk t.cats "";
      t.names <- add_chunk t.names "";
      t.ranks <- add_chunk t.ranks 0;
      t.cores <- add_chunk t.cores 0;
      t.ats <- add_chunk t.ats 0
    end;
    let k = i lsr chunk_bits and j = i land chunk_mask in
    t.ids.(k).(j) <- id;
    t.cats.(k).(j) <- cat;
    t.names.(k).(j) <- name;
    t.ranks.(k).(j) <- rank;
    t.cores.(k).(j) <- core;
    t.ats.(k).(j) <- now;
    t.n_nodes <- i + 1;
    insert_index t id i;
    let d = Fnv.add_int t.digest id in
    let d = Fnv.add_string d cat in
    let d = Fnv.add_string d name in
    let d = Fnv.add_int d rank in
    let d = Fnv.add_int d core in
    t.digest <- Fnv.add_int d now;
    (match Scope_tbl.find t.tails (rank, core) with
    | tail ->
      if chain then record_edge t Parent_child ~si:!tail ~di:i;
      tail := i
    | exception Not_found -> Scope_tbl.add t.tails (rank, core) (ref i));
    id
  end

let node_count t = t.n_nodes
let edge_count t = t.n_edges
let dropped t = t.dropped

let node_at t i =
  let k = i lsr chunk_bits and j = i land chunk_mask in
  {
    id = t.ids.(k).(j);
    cat = t.cats.(k).(j);
    name = t.names.(k).(j);
    rank = t.ranks.(k).(j);
    core = t.cores.(k).(j);
    at = t.ats.(k).(j);
  }

let edge_at t e =
  let k = e lsr chunk_bits and j = e land chunk_mask in
  {
    kind = t.kinds.(k).(j);
    src = node_id t t.srcs.(k).(j);
    dst = node_id t t.dsts.(k).(j);
  }

let nodes t = List.init t.n_nodes (node_at t)
let edges t = List.init t.n_edges (edge_at t)

let find t id =
  let i = index_of t id in
  if i < 0 then None else Some (node_at t i)

let last_matching t ~cat ~name =
  let rec go i =
    if i < 0 then None
    else
      let k = i lsr chunk_bits and j = i land chunk_mask in
      if String.equal t.cats.(k).(j) cat && String.equal t.names.(k).(j) name then
        Some t.ids.(k).(j)
      else go (i - 1)
  in
  go (t.n_nodes - 1)

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
    Scope_tbl.fold (fun k tail acc -> (k, node_id t !tail) :: acc) t.tails []
    |> List.sort compare
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
  let target = index_of t target in
  if target < 0 then []
  else begin
    (* [preds.(i)]: index of node [i]'s latest-arriving predecessor, or
       [-1]; edges are scanned oldest first, so the strict [>] keeps the
       earliest-recorded edge on ties *)
    let preds = Array.make t.n_nodes (-1) in
    for e = 0 to t.n_edges - 1 do
      let k = e lsr chunk_bits and j = e land chunk_mask in
      let s = t.srcs.(k).(j) and d = t.dsts.(k).(j) in
      let best = preds.(d) in
      if best < 0 || node_at_cycle t s > node_at_cycle t best then preds.(d) <- s
    done;
    let visited = Bytes.make t.n_nodes '\000' in
    let rec walk acc i =
      if Bytes.get visited i <> '\000' then acc
      else begin
        Bytes.set visited i '\001';
        let n = node_at t i in
        let p = preds.(i) in
        if p >= 0 && node_at_cycle t p <= n.at then walk (n :: acc) p else n :: acc
      end
    in
    walk [] target
  end

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
