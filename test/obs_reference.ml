(* Reference implementations for the model tests in [test_obs_model.ml]:
   the causal graph and the span/metric collector as they were before
   their storage moved to chunked columns and monomorphic tables. Kept
   verbatim apart from dropping what the model tests do not drive
   (critical-path attribution, [pp_metric]) and one behaviour fix in
   [Obs.span_end], marked below. *)

open Bg_engine

module Causal = struct
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
end

module Obs = struct
  (* The whole collector is passive: it never schedules events, never draws
     from an RNG stream, and never writes to the architectural trace, so a
     run's Sim digest is bit-identical whether collection is on or off. Its
     own stream of completed spans carries a parallel FNV digest, so the
     observability layer itself is determinism-checkable. *)

  (* --- scopes and keys ------------------------------------------------- *)

  let node_scope = -1

  type key = { subsystem : string; name : string; rank : int; core : int }

  let compare_key a b =
    let c = compare a.subsystem b.subsystem in
    if c <> 0 then c
    else
      let c = compare a.name b.name in
      if c <> 0 then c
      else
        let c = compare a.rank b.rank in
        if c <> 0 then c else compare a.core b.core

  (* --- spans ------------------------------------------------------------ *)

  type span = {
    cat : string;
    name : string;
    rank : int;
    core : int;
    start : Cycles.t;
    finish : Cycles.t;
    depth : int;
    seq : int;  (* global completion order *)
  }

  type handle = int

  let null_handle = -1

  type open_span = {
    o_cat : string;
    o_name : string;
    o_rank : int;
    o_core : int;
    o_start : Cycles.t;
    o_depth : int;
    o_scope_depth : int ref;  (* the scope's [depths] cell, looked up once *)
  }

  (* CNK-style bounded record store: parallel arrays overwritten in place
     once full. A ring starts small and doubles on demand up to [cap], so a
     scope that records a handful of spans costs a handful of slots; at
     [cap] it stops growing and wraps, overwriting the oldest span. Until
     then slot [i] holds the [i]th span pushed. The per-scope ring table
     itself is populated lazily, once per (rank, core) ever seen. *)
  type ring = {
    cap : int;
    mutable cats : string array;
    mutable names : string array;
    mutable starts : int array;
    mutable finishes : int array;
    mutable depths : int array;
    mutable seqs : int array;  (* global completion sequence number per slot *)
    mutable written : int;  (* total spans ever pushed through this ring *)
  }

  type timer = { online : Stats.Online.t; hist : Stats.Histogram.t }

  type t = {
    mutable enabled : bool;
    ring_capacity : int;
    rings : (int * int, ring) Hashtbl.t;
    opens : (handle, open_span) Hashtbl.t;
    depths : (int * int, int ref) Hashtbl.t;
    mutable next_handle : int;
    mutable digest : Fnv.t;
    mutable completed : int;
    counters : (key, int ref) Hashtbl.t;
    gauges : (key, int ref) Hashtbl.t;
    timers : (key, timer) Hashtbl.t;
  }

  let create ?(ring_capacity = 1024) ?(enabled = false) () =
    if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity";
    {
      enabled;
      ring_capacity;
      rings = Hashtbl.create 16;
      opens = Hashtbl.create 32;
      depths = Hashtbl.create 16;
      next_handle = 0;
      digest = Fnv.empty;
      completed = 0;
      counters = Hashtbl.create 64;
      gauges = Hashtbl.create 16;
      timers = Hashtbl.create 32;
    }

  let enabled t = t.enabled
  let set_enabled t v = t.enabled <- v
  let ring_capacity t = t.ring_capacity

  let initial_ring_slots = 8

  let ring_for t scope =
    match Hashtbl.find_opt t.rings scope with
    | Some r -> r
    | None ->
      let cap = t.ring_capacity in
      let n = min cap initial_ring_slots in
      let r =
        {
          cap;
          cats = Array.make n "";
          names = Array.make n "";
          starts = Array.make n 0;
          finishes = Array.make n 0;
          depths = Array.make n 0;
          seqs = Array.make n 0;
          written = 0;
        }
      in
      Hashtbl.add t.rings scope r;
      r

  (* Called when every slot holds a span and the ring is below [cap]: no
     wraparound has happened yet, so the spans keep their slots. *)
  let grow r =
    let n = min r.cap (2 * Array.length r.starts) in
    let extend a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    r.cats <- extend r.cats "";
    r.names <- extend r.names "";
    r.starts <- extend r.starts 0;
    r.finishes <- extend r.finishes 0;
    r.depths <- extend r.depths 0;
    r.seqs <- extend r.seqs 0

  let depth_for t scope =
    match Hashtbl.find_opt t.depths scope with
    | Some d -> d
    | None ->
      let d = ref 0 in
      Hashtbl.add t.depths scope d;
      d

  let push_span t ~cat ~name ~rank ~core ~start ~finish ~depth =
    let ring = ring_for t (rank, core) in
    if ring.written = Array.length ring.starts && ring.written < ring.cap then grow ring;
    let i = ring.written mod ring.cap in
    (* Ring wraparound overwrites the oldest span. That loss used to be
       visible only through arithmetic on [written]; count it as a
       first-class per-scope metric so exports and tools can warn. *)
    if ring.written >= ring.cap then begin
      let key = { subsystem = "obs"; name = "dropped_spans"; rank; core } in
      match Hashtbl.find_opt t.counters key with
      | Some r -> Stdlib.incr r
      | None -> Hashtbl.add t.counters key (ref 1)
    end;
    ring.cats.(i) <- cat;
    ring.names.(i) <- name;
    ring.starts.(i) <- start;
    ring.finishes.(i) <- finish;
    ring.depths.(i) <- depth;
    ring.seqs.(i) <- t.completed;
    ring.written <- ring.written + 1;
    t.completed <- t.completed + 1;
    let d = Fnv.add_string t.digest cat in
    let d = Fnv.add_string d name in
    let d = Fnv.add_int d rank in
    let d = Fnv.add_int d core in
    let d = Fnv.add_int d start in
    t.digest <- Fnv.add_int d finish

  let span_begin t ~cat ~name ~rank ~core ~now =
    if not t.enabled then null_handle
    else begin
      let d = depth_for t (rank, core) in
      let h = t.next_handle in
      t.next_handle <- h + 1;
      Hashtbl.add t.opens h
        {
          o_cat = cat;
          o_name = name;
          o_rank = rank;
          o_core = core;
          o_start = now;
          o_depth = !d;
          o_scope_depth = d;
        };
      incr d;
      h
    end

  let span_end t h ~now =
    if h <> null_handle then
      match Hashtbl.find_opt t.opens h with
      | None -> ()
      | Some o ->
        Hashtbl.remove t.opens h;
        let d = o.o_scope_depth in
        if !d > 0 then decr d;
        (* the one change from the original: a handle is closed even when
           the collector was disabled after it was opened *)
        if t.enabled then
          push_span t ~cat:o.o_cat ~name:o.o_name ~rank:o.o_rank ~core:o.o_core
            ~start:o.o_start ~finish:now ~depth:o.o_depth

  let span_record t ~cat ~name ~rank ~core ~start ~finish =
    if t.enabled then begin
      let d = depth_for t (rank, core) in
      push_span t ~cat ~name ~rank ~core ~start ~finish ~depth:!d
    end

  let open_count t = Hashtbl.length t.opens

  let abandon_open t h =
    if h <> null_handle then
      match Hashtbl.find_opt t.opens h with
      | None -> ()
      | Some o ->
        Hashtbl.remove t.opens h;
        let d = o.o_scope_depth in
        if !d > 0 then decr d

  let span_count t = t.completed

  let dropped_spans t =
    Hashtbl.fold (fun _ r acc -> acc + max 0 (r.written - r.cap)) t.rings 0

  let iter_scope_spans r f =
    let retained = min r.written r.cap in
    let first = r.written - retained in
    for j = first to r.written - 1 do
      let i = j mod r.cap in
      f
        {
          cat = r.cats.(i);
          name = r.names.(i);
          rank = 0;  (* overwritten below by caller-side scope *)
          core = 0;
          start = r.starts.(i);
          finish = r.finishes.(i);
          depth = r.depths.(i);
          seq = r.seqs.(i);
        }
    done

  let spans t =
    let scopes =
      Hashtbl.fold (fun scope r acc -> (scope, r) :: acc) t.rings []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let out = ref [] in
    List.iter
      (fun ((rank, core), r) ->
        iter_scope_spans r (fun s -> out := { s with rank; core } :: !out))
      scopes;
    (* total order: start cycle, then scope, then global completion
       sequence — equal-start spans sort deterministically no matter what
       order the scope table iterates in *)
    List.sort
      (fun a b ->
        let c = compare a.start b.start in
        if c <> 0 then c
        else
          let c = compare (a.rank, a.core) (b.rank, b.core) in
          if c <> 0 then c else compare a.seq b.seq)
      (List.rev !out)

  let digest t = t.digest

  (* --- metrics ----------------------------------------------------------- *)

  let incr t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name ?(by = 1) () =
    if t.enabled then begin
      let key = { subsystem; name; rank; core } in
      match Hashtbl.find_opt t.counters key with
      | Some r -> r := !r + by
      | None -> Hashtbl.add t.counters key (ref by)
    end

  let set_gauge t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name v =
    if t.enabled then begin
      let key = { subsystem; name; rank; core } in
      match Hashtbl.find_opt t.gauges key with
      | Some r -> r := v
      | None -> Hashtbl.add t.gauges key (ref v)
    end

  let default_hist_hi = 1_048_576.0
  let default_hist_bins = 64

  let observe_cycles t ?(rank = node_scope) ?(core = node_scope) ?(hi = default_hist_hi)
      ?(bins = default_hist_bins) ~subsystem ~name cycles =
    if t.enabled then begin
      let key = { subsystem; name; rank; core } in
      let timer =
        match Hashtbl.find_opt t.timers key with
        | Some tm -> tm
        | None ->
          let tm =
            { online = Stats.Online.create (); hist = Stats.Histogram.create ~lo:0.0 ~hi ~bins }
          in
          Hashtbl.add t.timers key tm;
          tm
      in
      let x = float_of_int cycles in
      Stats.Online.add timer.online x;
      Stats.Histogram.add timer.hist x
    end

  let counter_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
    match Hashtbl.find_opt t.counters { subsystem; name; rank; core } with
    | Some r -> !r
    | None -> 0

  let counter_total t ~subsystem ~name =
    Hashtbl.fold
      (fun k r acc -> if k.subsystem = subsystem && k.name = name then acc + !r else acc)
      t.counters 0

  let gauge_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
    match Hashtbl.find_opt t.gauges { subsystem; name; rank; core } with
    | Some r -> Some !r
    | None -> None

  let timer_stats t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
    Option.map (fun tm -> tm.online) (Hashtbl.find_opt t.timers { subsystem; name; rank; core })

  let timer_histogram t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
    Option.map (fun tm -> tm.hist) (Hashtbl.find_opt t.timers { subsystem; name; rank; core })

  (* --- snapshot ----------------------------------------------------------- *)

  type value =
    | Counter of int
    | Gauge of int
    | Timer of {
        n : int;
        mean : float;
        min : float;
        max : float;
        sum : float;
        p50 : float;
        p90 : float;
        p99 : float;
        p999 : float;
      }

  type metric = { key : key; value : value }

  let snapshot t =
    let out = ref [] in
    Hashtbl.iter (fun key r -> out := { key; value = Counter !r } :: !out) t.counters;
    Hashtbl.iter (fun key r -> out := { key; value = Gauge !r } :: !out) t.gauges;
    Hashtbl.iter
      (fun key tm ->
        let o = tm.online in
        let h = tm.hist in
        (* bin interpolation can land outside the observed extremes when a
           distribution is much tighter than the bin width; clamp so the
           reported quantiles always lie within the data *)
        let pct p =
          Float.max (Stats.Online.min o)
            (Float.min (Stats.Online.max o) (Stats.Histogram.percentile h p))
        in
        out :=
          {
            key;
            value =
              Timer
                {
                  n = Stats.Online.n o;
                  mean = Stats.Online.mean o;
                  min = Stats.Online.min o;
                  max = Stats.Online.max o;
                  sum = Stats.Histogram.sum h;
                  p50 = pct 0.50;
                  p90 = pct 0.90;
                  p99 = pct 0.99;
                  p999 = pct 0.999;
                };
          }
          :: !out)
      t.timers;
    List.sort (fun a b -> compare_key a.key b.key) !out

  let capture t b =
    let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
    let w_i64 = Buffer.add_int64_le b in
    let w_f v = w_i64 (Int64.bits_of_float v) in
    let w_s s =
      w_i (String.length s);
      Buffer.add_string b s
    in
    Buffer.add_uint8 b (if t.enabled then 1 else 0);
    w_i t.ring_capacity;
    w_i t.next_handle;
    w_i t.completed;
    w_i64 t.digest;
    let sp = spans t in
    w_i (List.length sp);
    List.iter
      (fun s ->
        w_s s.cat;
        w_s s.name;
        w_i s.rank;
        w_i s.core;
        w_i s.start;
        w_i s.finish;
        w_i s.depth;
        w_i s.seq)
      sp;
    let opens =
      Hashtbl.fold (fun h o acc -> (h, o) :: acc) t.opens [] |> List.sort compare
    in
    w_i (List.length opens);
    List.iter
      (fun (h, o) ->
        w_i h;
        w_s o.o_cat;
        w_s o.o_name;
        w_i o.o_rank;
        w_i o.o_core;
        w_i o.o_start;
        w_i o.o_depth)
      opens;
    let depths =
      Hashtbl.fold (fun k d acc -> (k, !d) :: acc) t.depths [] |> List.sort compare
    in
    w_i (List.length depths);
    List.iter
      (fun ((rank, core), d) ->
        w_i rank;
        w_i core;
        w_i d)
      depths;
    let ms = snapshot t in
    w_i (List.length ms);
    List.iter
      (fun m ->
        w_s m.key.subsystem;
        w_s m.key.name;
        w_i m.key.rank;
        w_i m.key.core;
        match m.value with
        | Counter v ->
          Buffer.add_uint8 b 0;
          w_i v
        | Gauge v ->
          Buffer.add_uint8 b 1;
          w_i v
        | Timer x ->
          Buffer.add_uint8 b 2;
          w_i x.n;
          w_f x.mean;
          w_f x.min;
          w_f x.max;
          w_f x.sum;
          w_f x.p50;
          w_f x.p90;
          w_f x.p99;
          w_f x.p999)
      ms

  let reset t =
    Hashtbl.reset t.rings;
    Hashtbl.reset t.opens;
    Hashtbl.reset t.depths;
    Hashtbl.reset t.counters;
    Hashtbl.reset t.gauges;
    Hashtbl.reset t.timers;
    t.next_handle <- 0;
    t.digest <- Fnv.empty;
    t.completed <- 0
end
