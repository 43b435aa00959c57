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

(* Metric tables compare keys field by field with [String.equal] and
   integer equality, never with the polymorphic [compare]. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.rank = b.rank && a.core = b.core && String.equal a.name b.name
    && String.equal a.subsystem b.subsystem

  let hash k =
    (Hashtbl.hash k.name + (31 * Hashtbl.hash k.subsystem) + (961 * k.rank) + (29_791 * k.core))
    land max_int
end)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash h = h land max_int
end)

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

(* Everything the collector keeps per (rank, core): the nesting depth of
   its open spans and its ring of completed ones. A span looks its scope
   up once, at begin or record time, and an open span carries it to its
   end.

   The ring is the CNK-style bounded record store: parallel arrays
   overwritten in place once full. It starts empty and doubles on demand
   (first to [initial_ring_slots]) up to [cap], so a scope that records a
   handful of spans costs a handful of slots; at [cap] it stops growing
   and wraps, overwriting the oldest span. Until then slot [i] holds the
   [i]th span pushed. *)
type scope = {
  s_rank : int;
  s_core : int;
  mutable depth : int;
  cap : int;
  mutable cats : string array;
  mutable names : string array;
  mutable starts : int array;
  mutable finishes : int array;
  mutable depths : int array;
  mutable seqs : int array;  (* global completion sequence number per slot *)
  mutable written : int;  (* total spans ever pushed through this ring *)
}

type open_span = {
  o_cat : string;
  o_name : string;
  o_start : Cycles.t;
  o_depth : int;
  o_scope : scope;
}

type timer = { online : Stats.Online.t; hist : Stats.Histogram.t }

type t = {
  mutable enabled : bool;
  ring_capacity : int;
  scopes : scope Scope_tbl.t;
  opens : open_span Int_tbl.t;
  mutable next_handle : int;
  mutable digest : Fnv.t;
  mutable completed : int;
  counters : int ref Key_tbl.t;
  gauges : int ref Key_tbl.t;
  timers : timer Key_tbl.t;
}

let create ?(ring_capacity = 1024) ?(enabled = false) () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity";
  {
    enabled;
    ring_capacity;
    scopes = Scope_tbl.create 16;
    opens = Int_tbl.create 32;
    next_handle = 0;
    digest = Fnv.empty;
    completed = 0;
    counters = Key_tbl.create 64;
    gauges = Key_tbl.create 16;
    timers = Key_tbl.create 32;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let ring_capacity t = t.ring_capacity

let initial_ring_slots = 8

let scope_for t ~rank ~core =
  match Scope_tbl.find t.scopes (rank, core) with
  | s -> s
  | exception Not_found ->
    let s =
      {
        s_rank = rank;
        s_core = core;
        depth = 0;
        cap = t.ring_capacity;
        cats = [||];
        names = [||];
        starts = [||];
        finishes = [||];
        depths = [||];
        seqs = [||];
        written = 0;
      }
    in
    Scope_tbl.add t.scopes (rank, core) s;
    s

(* Called when every slot holds a span and the ring is below [cap]: no
   wraparound has happened yet, so the spans keep their slots. *)
let grow s =
  let n = min s.cap (max initial_ring_slots (2 * Array.length s.starts)) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.cats <- extend s.cats "";
  s.names <- extend s.names "";
  s.starts <- extend s.starts 0;
  s.finishes <- extend s.finishes 0;
  s.depths <- extend s.depths 0;
  s.seqs <- extend s.seqs 0

let incr_counter table key by =
  match Key_tbl.find table key with
  | r -> r := !r + by
  | exception Not_found -> Key_tbl.add table key (ref by)

let push_span t s ~cat ~name ~start ~finish ~depth =
  if s.written = Array.length s.starts && s.written < s.cap then grow s;
  let i = s.written mod s.cap in
  (* Ring wraparound overwrites the oldest span. That loss used to be
     visible only through arithmetic on [written]; count it as a
     first-class per-scope metric so exports and tools can warn. *)
  if s.written >= s.cap then
    incr_counter t.counters
      { subsystem = "obs"; name = "dropped_spans"; rank = s.s_rank; core = s.s_core }
      1;
  s.cats.(i) <- cat;
  s.names.(i) <- name;
  s.starts.(i) <- start;
  s.finishes.(i) <- finish;
  s.depths.(i) <- depth;
  s.seqs.(i) <- t.completed;
  s.written <- s.written + 1;
  t.completed <- t.completed + 1;
  let d = Fnv.add_string t.digest cat in
  let d = Fnv.add_string d name in
  let d = Fnv.add_int d s.s_rank in
  let d = Fnv.add_int d s.s_core in
  let d = Fnv.add_int d start in
  t.digest <- Fnv.add_int d finish

let span_begin t ~cat ~name ~rank ~core ~now =
  if not t.enabled then null_handle
  else begin
    let s = scope_for t ~rank ~core in
    let h = t.next_handle in
    t.next_handle <- h + 1;
    Int_tbl.add t.opens h
      { o_cat = cat; o_name = name; o_start = now; o_depth = s.depth; o_scope = s };
    s.depth <- s.depth + 1;
    h
  end

(* Close an open span: forget the handle and unwind its scope's depth.
   [None] for an unknown or already-closed handle. *)
let close t h =
  match Int_tbl.find t.opens h with
  | exception Not_found -> None
  | o ->
    Int_tbl.remove t.opens h;
    let s = o.o_scope in
    if s.depth > 0 then s.depth <- s.depth - 1;
    Some o

(* A handle opened while enabled is closed even if the collector has been
   disabled since, so the open table and the scope's depth stay balanced;
   only the recording of the span depends on [enabled]. *)
let span_end t h ~now =
  if h <> null_handle then
    match close t h with
    | Some o when t.enabled ->
      push_span t o.o_scope ~cat:o.o_cat ~name:o.o_name ~start:o.o_start ~finish:now
        ~depth:o.o_depth
    | Some _ | None -> ()

let span_record t ~cat ~name ~rank ~core ~start ~finish =
  if t.enabled then begin
    let s = scope_for t ~rank ~core in
    push_span t s ~cat ~name ~start ~finish ~depth:s.depth
  end

let open_count t = Int_tbl.length t.opens
let abandon_open t h = if h <> null_handle then ignore (close t h)
let span_count t = t.completed

let dropped_spans t =
  Scope_tbl.fold (fun _ s acc -> acc + max 0 (s.written - s.cap)) t.scopes 0

let spans t =
  let scopes =
    Scope_tbl.fold (fun key s acc -> (key, s) :: acc) t.scopes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let out = ref [] in
  List.iter
    (fun (_, s) ->
      let retained = min s.written s.cap in
      for j = s.written - retained to s.written - 1 do
        let i = j mod s.cap in
        out :=
          {
            cat = s.cats.(i);
            name = s.names.(i);
            rank = s.s_rank;
            core = s.s_core;
            start = s.starts.(i);
            finish = s.finishes.(i);
            depth = s.depths.(i);
            seq = s.seqs.(i);
          }
          :: !out
      done)
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
  if t.enabled then incr_counter t.counters { subsystem; name; rank; core } by

let set_gauge t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name v =
  if t.enabled then begin
    let key = { subsystem; name; rank; core } in
    match Key_tbl.find t.gauges key with
    | r -> r := v
    | exception Not_found -> Key_tbl.add t.gauges key (ref v)
  end

let default_hist_hi = 1_048_576.0
let default_hist_bins = 64

let observe_cycles t ?(rank = node_scope) ?(core = node_scope) ?(hi = default_hist_hi)
    ?(bins = default_hist_bins) ~subsystem ~name cycles =
  if t.enabled then begin
    let key = { subsystem; name; rank; core } in
    let timer =
      match Key_tbl.find t.timers key with
      | tm -> tm
      | exception Not_found ->
        let tm =
          { online = Stats.Online.create (); hist = Stats.Histogram.create ~lo:0.0 ~hi ~bins }
        in
        Key_tbl.add t.timers key tm;
        tm
    in
    let x = float_of_int cycles in
    Stats.Online.add timer.online x;
    Stats.Histogram.add timer.hist x
  end

let counter_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  match Key_tbl.find_opt t.counters { subsystem; name; rank; core } with
  | Some r -> !r
  | None -> 0

let counter_total t ~subsystem ~name =
  Key_tbl.fold
    (fun k r acc ->
      if String.equal k.subsystem subsystem && String.equal k.name name then acc + !r else acc)
    t.counters 0

let gauge_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  match Key_tbl.find_opt t.gauges { subsystem; name; rank; core } with
  | Some r -> Some !r
  | None -> None

let timer_stats t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.online) (Key_tbl.find_opt t.timers { subsystem; name; rank; core })

let timer_histogram t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.hist) (Key_tbl.find_opt t.timers { subsystem; name; rank; core })

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
  Key_tbl.iter (fun key r -> out := { key; value = Counter !r } :: !out) t.counters;
  Key_tbl.iter (fun key r -> out := { key; value = Gauge !r } :: !out) t.gauges;
  Key_tbl.iter
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
    Int_tbl.fold (fun h o acc -> (h, o) :: acc) t.opens []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  w_i (List.length opens);
  List.iter
    (fun (h, o) ->
      w_i h;
      w_s o.o_cat;
      w_s o.o_name;
      w_i o.o_scope.s_rank;
      w_i o.o_scope.s_core;
      w_i o.o_start;
      w_i o.o_depth)
    opens;
  let depths =
    Scope_tbl.fold (fun k s acc -> (k, s.depth) :: acc) t.scopes [] |> List.sort compare
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
  Scope_tbl.reset t.scopes;
  Int_tbl.reset t.opens;
  Key_tbl.reset t.counters;
  Key_tbl.reset t.gauges;
  Key_tbl.reset t.timers;
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
