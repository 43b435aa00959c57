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

let kind_of_code = function
  | 0 -> Send_recv
  | 1 -> Inject_complete
  | 2 -> Request_reply
  | _ -> Parent_child

(* Storage is packed columns in chunks: node [i] (mint order) is slot
   [i land chunk_mask] of chunk [i lsr chunk_bits] of the node spine, an
   int array holding id, rank, core, cycle and label code
   ({!Fnv.Label.code}); edge [e] (record
   order) is one int chunk slot holding kind code, source and
   destination node index. A full
   spine gets one more chunk, so no slot is ever copied and growth never
   holds an old and a new copy of a column at once, which a doubling
   array does at every resize. Records are built only when [nodes],
   [edges], [find] or [critical_path] ask. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let node_ints = 5
let edge_ints = 3

(* Append a chunk to a spine whose chunks are all full; only the spine,
   one pointer per chunk, is ever copied. *)
let add_chunk spine chunk =
  let k = Array.length spine in
  let grown = Array.make (k + 1) chunk in
  Array.blit spine 0 grown 0 k;
  grown

let initial_slots = 16

type t = {
  mutable enabled : bool;
  seed : int;
  seed_prefix : Fnv.t;  (* [Fnv.add_int Fnv.empty seed], folded once *)
  max_nodes : int;
  mutable node_i : int array array;
  mutable edge_i : int array array;
  (* id -> node index, open addressing with linear probing; [-1] is an
     empty slot. Ids are FNV outputs, so their low bits already spread
     and index the table directly. At most half full. *)
  mutable slots : int array;
  mutable n_nodes : int;
  mutable n_edges : int;
  mutable minted : int;  (* feeds the id stream; never reused *)
  mutable dropped : int;
  tails : int Obs.Scope_dir.t;  (* index of the last node minted on each (rank, core), or -1 *)
  digest : Fnv.Acc.t;
  names : Fnv.Names.t;  (* pairs [mint] met undeclared; at most one per node *)
}

let create ?(seed = 1) ?(max_nodes = 262_144) ?(enabled = false) () =
  if max_nodes <= 0 then invalid_arg "Causal.create: max_nodes";
  {
    enabled;
    seed;
    seed_prefix = Fnv.add_int Fnv.empty seed;
    max_nodes;
    node_i = [||];
    edge_i = [||];
    slots = [||];
    n_nodes = 0;
    n_edges = 0;
    minted = 0;
    dropped = 0;
    tails = Obs.Scope_dir.create (-1);
    digest = Fnv.Acc.create ();
    names = Fnv.Names.create ();
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let reset t =
  t.node_i <- [||];
  t.edge_i <- [||];
  t.slots <- [||];
  Obs.Scope_dir.clear t.tails;
  t.n_nodes <- 0;
  t.n_edges <- 0;
  t.minted <- 0;
  t.dropped <- 0;
  Fnv.Acc.reset t.digest;
  Fnv.Names.clear t.names

let[@inline] node_field t i f =
  let chunk = Array.unsafe_get t.node_i (i lsr chunk_bits) in
  Array.unsafe_get chunk (((i land chunk_mask) * node_ints) + f)

let node_id t i = node_field t i 0
let node_at_cycle t i = node_field t i 3

(* --- id table ----------------------------------------------------------- *)

(* The slot holding [id], or the empty slot where it would go. *)
let rec probe t id i =
  let s = Array.unsafe_get t.slots i in
  if s < 0 || node_id t s = id then i else probe t id ((i + 1) land (Array.length t.slots - 1))

(* Node index of [id], or [-1]. *)
let index_of t id =
  if id = none || Array.length t.slots = 0 then -1
  else t.slots.(probe t id (id land (Array.length t.slots - 1)))

let rec place slots id i =
  if slots.(i) < 0 then i else place slots id ((i + 1) land (Array.length slots - 1))

(* Keep the table at most half full once node [n_nodes] is in. *)
let reserve_slot t =
  if 2 * (t.n_nodes + 1) > Array.length t.slots then begin
    let slots = Array.make (max initial_slots (2 * Array.length t.slots)) (-1) in
    for j = 0 to t.n_nodes - 1 do
      let jd = node_id t j in
      slots.(place slots jd (jd land (Array.length slots - 1))) <- j
    done;
    t.slots <- slots
  end

(* --- recording ---------------------------------------------------------- *)

(* Deterministic non-zero id: FNV(seed, counter), masked positive. A
   collision with a live id (astronomically unlikely but cheap to rule
   out) just advances the counter. The probe that rules it out also
   finds the empty slot the new node takes, so a mint probes once. *)
let rec fresh_id t =
  t.minted <- t.minted + 1;
  let id = Fnv.hash_int t.seed_prefix t.minted land max_int in
  if id = none then fresh_id t
  else
    let slot = probe t id (id land (Array.length t.slots - 1)) in
    if Array.unsafe_get t.slots slot >= 0 then fresh_id t
    else begin
      Array.unsafe_set t.slots slot t.n_nodes;
      id
    end

(* [si] and [di] are node indices. *)
let record_edge t kind ~si ~di =
  let e = t.n_edges in
  if e land chunk_mask = 0 then
    t.edge_i <- add_chunk t.edge_i (Array.make (chunk_size * edge_ints) 0);
  let c = Array.unsafe_get t.edge_i (e lsr chunk_bits) and j = (e land chunk_mask) * edge_ints in
  let code = kind_code kind in
  Array.unsafe_set c j code;
  Array.unsafe_set c (j + 1) si;
  Array.unsafe_set c (j + 2) di;
  t.n_edges <- e + 1;
  Fnv.Acc.int3 t.digest code (node_id t si) (node_id t di)

let link t kind ~src ~dst =
  if t.enabled then begin
    let si = index_of t src in
    if si >= 0 then begin
      let di = index_of t dst in
      if di >= 0 then record_edge t kind ~si ~di
    end
  end

(* Chain node [i] after the last node minted on (rank, core). *)
let chain_tail t ~chain ~rank ~core i =
  let tail = Obs.Scope_dir.find t.tails ~rank ~core in
  if chain && tail >= 0 then record_edge t Parent_child ~si:tail ~di:i;
  Obs.Scope_dir.set t.tails ~rank ~core i

let full t =
  if t.n_nodes < t.max_nodes then false
  else begin
    t.dropped <- t.dropped + 1;
    true
  end

(* [c] is a label code ({!Fnv.Label.code}). *)
let mint_code t ~chain c ~rank ~core ~now =
  reserve_slot t;
  let id = fresh_id t in
  let i = t.n_nodes in
  if i land chunk_mask = 0 then
    t.node_i <- add_chunk t.node_i (Array.make (chunk_size * node_ints) 0);
  let ci = Array.unsafe_get t.node_i (i lsr chunk_bits) in
  let j = (i land chunk_mask) * node_ints in
  Array.unsafe_set ci j id;
  Array.unsafe_set ci (j + 1) rank;
  Array.unsafe_set ci (j + 2) core;
  Array.unsafe_set ci (j + 3) now;
  Array.unsafe_set ci (j + 4) c;
  t.n_nodes <- i + 1;
  if c >= 0 then Fnv.Acc.int_label_int3 t.digest id (Fnv.Label.of_int c) rank core now
  else begin
    Fnv.Acc.int t.digest id;
    Fnv.Acc.code t.digest t.names c;
    Fnv.Acc.int3 t.digest rank core now
  end;
  chain_tail t ~chain ~rank ~core i;
  id

let mint_l t ~chain (l : Obs.label) ~rank ~core ~now =
  if (not t.enabled) || full t then none else mint_code t ~chain (l :> int) ~rank ~core ~now

(* The pair is looked up only once the node is known to fit, so a full
   graph adds no name. *)
let mint t ?(chain = true) ~cat ~name ~rank ~core ~now () =
  if (not t.enabled) || full t then none
  else mint_code t ~chain (Fnv.Label.code t.names ~cat ~name) ~rank ~core ~now

let node_count t = t.n_nodes
let edge_count t = t.n_edges
let dropped t = t.dropped
let local_names t = Fnv.Names.count t.names

let node_at t i =
  let c = node_field t i 4 in
  {
    id = node_field t i 0;
    cat = Fnv.Label.code_cat t.names c;
    name = Fnv.Label.code_name t.names c;
    rank = node_field t i 1;
    core = node_field t i 2;
    at = node_field t i 3;
  }

let edge_field t e f = t.edge_i.(e lsr chunk_bits).(((e land chunk_mask) * edge_ints) + f)

let edge_at t e =
  {
    kind = kind_of_code (edge_field t e 0);
    src = node_id t (edge_field t e 1);
    dst = node_id t (edge_field t e 2);
  }

let nodes t = List.init t.n_nodes (node_at t)
let edges t = List.init t.n_edges (edge_at t)

let find t id =
  let i = index_of t id in
  if i < 0 then None else Some (node_at t i)

let last_matching t ~cat ~name =
  let code =
    match Fnv.Label.find ~cat ~name with
    | Some l -> Some (l :> int)
    | None ->
      let k = Fnv.Names.find t.names ~cat ~name in
      if k < 0 then None else Some (lnot k)
  in
  match code with
  | None -> None
  | Some c ->
    let rec go i =
      if i < 0 then None else if node_field t i 4 = c then Some (node_id t i) else go (i - 1)
    in
    go (t.n_nodes - 1)

let digest t = Fnv.Acc.value t.digest

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i t.seed;
  w_i t.max_nodes;
  w_i t.n_nodes;
  w_i t.n_edges;
  w_i t.minted;
  w_i t.dropped;
  Buffer.add_int64_le b (digest t);
  (* nodes and edges are already folded into the digest; only the
     per-scope chaining tails add restart-relevant state beyond it *)
  let tails = ref [] in
  Obs.Scope_dir.iter t.tails (fun ~rank ~core i -> tails := (rank, core, node_id t i) :: !tails);
  w_i (List.length !tails);
  List.iter
    (fun (rank, core, id) ->
      w_i rank;
      w_i core;
      w_i id)
    (List.rev !tails)

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
      let s = edge_field t e 1 and d = edge_field t e 2 in
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
