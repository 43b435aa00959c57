open Bg_engine

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
  if t.enabled && h <> null_handle then
    match Hashtbl.find_opt t.opens h with
    | None -> ()
    | Some o ->
      Hashtbl.remove t.opens h;
      let d = o.o_scope_depth in
      if !d > 0 then decr d;
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

let pp_metric ppf m =
  let scope =
    if m.key.rank = node_scope && m.key.core = node_scope then ""
    else Printf.sprintf " [r%d c%d]" m.key.rank m.key.core
  in
  match m.value with
  | Counter v -> Format.fprintf ppf "%s.%s%s = %d" m.key.subsystem m.key.name scope v
  | Gauge v -> Format.fprintf ppf "%s.%s%s = %d (gauge)" m.key.subsystem m.key.name scope v
  | Timer { n; mean; min; max; sum = _; p50; p90 = _; p99; p999 } ->
    Format.fprintf ppf
      "%s.%s%s: n=%d mean=%.1f min=%.0f max=%.0f p50=%.0f p99=%.0f p999=%.0f"
      m.key.subsystem m.key.name scope n mean min max p50 p99 p999
