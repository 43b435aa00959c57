open Bg_engine

(* The whole collector is passive: it never schedules events, never draws
   from an RNG stream, and never writes to the architectural trace, so a
   run's Sim digest is bit-identical whether collection is on or off. Its
   own stream of completed spans carries a parallel FNV digest, so the
   observability layer itself is determinism-checkable. *)

let node_scope = -1

(* [a] copied into a fresh array of at least [n] slots, [fill] beyond *)
let grown_to a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* --- the scope directory ------------------------------------------------ *)

module Scope_dir = struct
  type 'a t = {
    empty : 'a;
    mutable rows : 'a array array;  (* [rows.(rank + 1).(core + 1)] *)
    mutable odd : (int * int * 'a) list;  (* any scope with rank or core below -1 *)
  }

  let create empty = { empty; rows = [||]; odd = [] }

  let clear d =
    d.rows <- [||];
    d.odd <- []

  let find_odd d ~rank ~core =
    match List.find_opt (fun (r, c, _) -> r = rank && c = core) d.odd with
    | Some (_, _, v) -> v
    | None -> d.empty

  let find d ~rank ~core =
    let r = rank + 1 and c = core + 1 in
    if r < 0 || c < 0 then find_odd d ~rank ~core
    else if r < Array.length d.rows then begin
      let row = Array.unsafe_get d.rows r in
      if c < Array.length row then Array.unsafe_get row c else d.empty
    end
    else d.empty

  let set_slow d ~rank ~core v =
    let r = rank + 1 and c = core + 1 in
    if r < 0 || c < 0 then
      d.odd <- (rank, core, v) :: List.filter (fun (r, c, _) -> r <> rank || c <> core) d.odd
    else begin
      if r >= Array.length d.rows then d.rows <- grown_to d.rows (r + 1) [||];
      let row = d.rows.(r) in
      let row = if c < Array.length row then row else grown_to row (max 4 (c + 1)) d.empty in
      row.(c) <- v;
      d.rows.(r) <- row
    end

  let set d ~rank ~core v =
    let r = rank + 1 and c = core + 1 in
    if r >= 0 && c >= 0 && r < Array.length d.rows then begin
      let row = Array.unsafe_get d.rows r in
      if c < Array.length row then Array.unsafe_set row c v else set_slow d ~rank ~core v
    end
    else set_slow d ~rank ~core v

  let iter d f =
    let all = ref d.odd in
    Array.iteri
      (fun r row -> Array.iteri (fun c v -> if v != d.empty then all := (r - 1, c - 1, v) :: !all) row)
      d.rows;
    List.sort
      (fun (r1, c1, _) (r2, c2, _) ->
        let c = Int.compare r1 r2 in
        if c <> 0 then c else Int.compare c1 c2)
      !all
    |> List.iter (fun (rank, core, v) -> f ~rank ~core v)
end

type key = { subsystem : string; name : string; rank : int; core : int }

(* --- the metric schema --------------------------------------------------

   One process-wide registry per kind maps (subsystem, name) to a dense
   integer id. Layers declare their metrics once, at module
   initialisation, and hot paths pass the id; the string API resolves a
   name through the same registry, registering a name nobody declared on
   first use. A collector stores a metric as slot [id] of a flat array in
   its (rank, core) scope, so no call hashes a string or builds a key. *)

module Metric = struct
  type kind = Counter | Gauge | Timer
  type scope = Node | Rank | Core | Tenant

  type info = {
    subsystem : string;
    name : string;
    unit : string;
    kind : kind;
    scopes : scope list;
    doc : string;
    members : string array;
    hi : float;
  }

  type counter = int
  type gauge = int
  type timer = int

  (* [names] gives each (subsystem, name) its id; [infos.(id)] is [None]
     for a name registered by the string API without a declaration. *)
  type registry = { names : Fnv.Names.t; mutable infos : info option array }

  let registry () = { names = Fnv.Names.create (); infos = [||] }
  let count reg = Fnv.Names.count reg.names

  let counters = registry ()
  let gauges = registry ()
  let timers = registry ()
  let of_kind = function Counter -> counters | Gauge -> gauges | Timer -> timers

  (* Declaration order, newest first, for the generated table. *)
  let declared_infos = ref []

  let resolve reg ~subsystem ~name =
    let id = Fnv.Names.intern reg.names ~cat:subsystem ~name in
    if id = Array.length reg.infos then begin
      let infos = Array.make (max 64 (2 * id)) None in
      Array.blit reg.infos 0 infos 0 id;
      reg.infos <- infos
    end;
    id

  let find reg ~subsystem ~name = Fnv.Names.find reg.names ~cat:subsystem ~name

  let default_hi = 1_048_576.0
  let default_bins = 64

  let declare_member reg info name =
    let id = resolve reg ~subsystem:info.subsystem ~name in
    if reg.infos.(id) <> None then
      invalid_arg (Printf.sprintf "Obs.Metric: %s.%s declared twice" info.subsystem name);
    reg.infos.(id) <- Some info;
    id

  let declare kind ~subsystem ~names ~pattern ~unit ~scopes ~hi doc =
    let info = { subsystem; name = pattern; unit; kind; scopes; doc; members = names; hi } in
    let ids = Array.map (declare_member (of_kind kind) info) names in
    declared_infos := info :: !declared_infos;
    ids

  let one kind ~subsystem ~name ~unit ~scopes ~hi doc =
    (declare kind ~subsystem ~names:[| name |] ~pattern:name ~unit ~scopes ~hi doc).(0)

  let counter ~subsystem ~name ~unit ~scopes doc =
    one Counter ~subsystem ~name ~unit ~scopes ~hi:default_hi doc

  let gauge ~subsystem ~name ~unit ~scopes doc =
    one Gauge ~subsystem ~name ~unit ~scopes ~hi:default_hi doc

  let timer ?(hi = default_hi) ~subsystem ~name ~unit ~scopes doc =
    one Timer ~subsystem ~name ~unit ~scopes ~hi doc

  let counters_family ~subsystem ~names ~pattern ~unit ~scopes doc =
    declare Counter ~subsystem ~names ~pattern ~unit ~scopes ~hi:default_hi doc

  let gauges_family ~subsystem ~names ~pattern ~unit ~scopes doc =
    declare Gauge ~subsystem ~names ~pattern ~unit ~scopes ~hi:default_hi doc

  let timers_family ~subsystem ~names ~pattern ~unit ~scopes doc =
    declare Timer ~subsystem ~names ~pattern ~unit ~scopes ~hi:default_hi doc

  let is_declared ~subsystem ~name =
    List.exists
      (fun reg ->
        let id = find reg ~subsystem ~name in
        id >= 0 && reg.infos.(id) <> None)
      [ counters; gauges; timers ]

  let schema () = List.rev !declared_infos
  let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Timer -> "timer"

  let scope_name = function
    | Node -> "node"
    | Rank -> "rank"
    | Core -> "core"
    | Tenant -> "tenant"

  let markdown_table () =
    let b = Buffer.create 4096 in
    Buffer.add_string b "| name | unit | kind | scope | definition |\n|---|---|---|---|---|\n";
    let rows =
      List.stable_sort
        (fun a b ->
          let c = String.compare a.subsystem b.subsystem in
          if c <> 0 then c else String.compare a.name b.name)
        (schema ())
    in
    List.iter
      (fun i ->
        let doc =
          if Array.length i.members = 1 && i.members.(0) = i.name then i.doc
          else
            Printf.sprintf "%s Members: %s." i.doc
              (String.concat ", " (List.map (Printf.sprintf "`%s`") (Array.to_list i.members)))
        in
        Printf.bprintf b "| `%s.%s` | %s | %s | %s | %s |\n" i.subsystem i.name i.unit
          (kind_name i.kind)
          (String.concat ", " (List.map scope_name i.scopes))
          doc)
      rows;
    Buffer.contents b
end

let dropped_spans_metric =
  Metric.counter ~subsystem:"obs" ~name:"dropped_spans" ~unit:"count" ~scopes:[ Metric.Core ]
    "Spans overwritten by ring wraparound in this (rank, core) scope."

(* --- spans ------------------------------------------------------------ *)

type label = Fnv.Label.t

let label ~cat ~name = Fnv.Label.declare ~cat ~name

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

type timer = { online : Stats.Online.t; hist : Stats.Histogram.t }

(* marks an empty timer slot *)
let no_timer =
  { online = Stats.Online.create (); hist = Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:1 }

(* Everything the collector keeps per (rank, core): the nesting depth of
   its open spans, its ring of completed ones and its metric slots. A
   span or metric call finds its scope by two array indexings.

   The ring is the CNK-style bounded record store, overwritten in place
   once full. Its slots live in segments of 8, 16, 32, ... spans (the
   last one cut to [cap]), added on demand, so a scope that records a
   handful of spans costs a handful of slots and growth never copies a
   span. Each segment is one int array: start, finish, depth, completion
   sequence and label per span. At [cap] the ring stops growing and
   wraps, overwriting the oldest span. Until then ring slot [i] holds the
   [i]th span pushed. *)
let ring_ints = 5
let initial_ring_slots = 8

type scope = {
  s_rank : int;
  s_core : int;
  s_index : int;  (* position in [t.scopes] *)
  mutable spanned : bool;  (* a span call has touched this scope *)
  mutable depth : int;
  mutable seg_ints : int array array;
  mutable seg : int;  (* segment being written; -1 before the first span *)
  mutable cur_ints : int array;
  mutable cur_len : int;  (* spans in the current segment *)
  mutable off : int;  (* next span in the current segment *)
  mutable allocated : int;  (* spans in all segments *)
  mutable written : int;  (* total spans ever pushed through this ring *)
  (* metric slots, indexed by metric id; a set byte marks a live slot *)
  mutable counts : int array;
  mutable counted : Bytes.t;
  mutable gauges : int array;
  mutable gauged : Bytes.t;
  mutable timers : timer array;
}

let new_scope_record ~rank ~core ~index =
  {
    s_rank = rank;
    s_core = core;
    s_index = index;
    spanned = false;
    depth = 0;
    seg_ints = [||];
    seg = -1;
    cur_ints = [||];
    cur_len = 0;
    off = 0;
    allocated = 0;
    written = 0;
    counts = [||];
    counted = Bytes.empty;
    gauges = [||];
    gauged = Bytes.empty;
    timers = [||];
  }

let no_scope = new_scope_record ~rank:min_int ~core:min_int ~index:(-1)

(* Open spans: an open-addressing table keyed by handle, with the handle
   itself as the hash (handles are consecutive), linear probing and
   backward-shift deletion, at most half full. Slot [i] is
   [opens.(5i .. 5i+4)] = handle (-1 when empty), start, depth, scope
   index, label code. *)
let open_ints = 5

type t = {
  mutable enabled : bool;
  ring_capacity : int;
  dir : scope Scope_dir.t;
  mutable scopes : scope array;
  mutable n_scopes : int;
  mutable opens : int array;
  mutable n_open : int;
  mutable next_handle : int;
  digest : Fnv.Acc.t;
  mutable completed : int;
  mutable names : Fnv.Names.t;  (* pairs the string entry points met undeclared *)
  mutable names_limit : int;
}

let min_names_limit = 256

let create ?(ring_capacity = 1024) ?(enabled = false) () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity";
  {
    enabled;
    ring_capacity;
    dir = Scope_dir.create no_scope;
    scopes = [||];
    n_scopes = 0;
    opens = [||];
    n_open = 0;
    next_handle = 0;
    digest = Fnv.Acc.create ();
    completed = 0;
    names = Fnv.Names.create ();
    names_limit = min_names_limit;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let ring_capacity t = t.ring_capacity

(* --- scopes ------------------------------------------------------------ *)

let add_scope t ~rank ~core =
  let s = new_scope_record ~rank ~core ~index:t.n_scopes in
  if t.n_scopes = Array.length t.scopes then begin
    let grown = Array.make (max 16 (2 * t.n_scopes)) no_scope in
    Array.blit t.scopes 0 grown 0 t.n_scopes;
    t.scopes <- grown
  end;
  t.scopes.(t.n_scopes) <- s;
  t.n_scopes <- t.n_scopes + 1;
  s

let new_scope t ~rank ~core =
  let s = add_scope t ~rank ~core in
  Scope_dir.set t.dir ~rank ~core s;
  s

let[@inline] scope t ~rank ~core =
  let s = Scope_dir.find t.dir ~rank ~core in
  if s != no_scope then s else new_scope t ~rank ~core

let span_scope t ~rank ~core =
  let s = scope t ~rank ~core in
  s.spanned <- true;
  s

(* Scopes a span call has touched, in (rank, core) order. *)
let spanned_scopes t =
  let out = ref [] in
  Scope_dir.iter t.dir (fun ~rank:_ ~core:_ s -> if s.spanned then out := s :: !out);
  List.rev !out

(* --- metric slots ------------------------------------------------------ *)

let grow_ints a n = grown_to a n 0

let grow_flags b n =
  let g = Bytes.make (max n (2 * Bytes.length b)) '\000' in
  Bytes.blit b 0 g 0 (Bytes.length b);
  g

let reserve_counts s id =
  let n = max (id + 1) (Metric.count Metric.counters) in
  s.counts <- grow_ints s.counts n;
  s.counted <- grow_flags s.counted n

let reserve_gauges s id =
  let n = max (id + 1) (Metric.count Metric.gauges) in
  s.gauges <- grow_ints s.gauges n;
  s.gauged <- grow_flags s.gauged n

let[@inline] add_in s id by =
  if id >= Array.length s.counts then reserve_counts s id;
  Array.unsafe_set s.counts id (Array.unsafe_get s.counts id + by);
  Bytes.unsafe_set s.counted id '\001'

let[@inline] set_in s id v =
  if id >= Array.length s.gauges then reserve_gauges s id;
  Array.unsafe_set s.gauges id v;
  Bytes.unsafe_set s.gauged id '\001'

let new_timer s id ~hi ~bins =
  if id >= Array.length s.timers then
    s.timers <- grown_to s.timers (max (id + 1) (Metric.count Metric.timers)) no_timer;
  let tm = { online = Stats.Online.create (); hist = Stats.Histogram.create ~lo:0.0 ~hi ~bins } in
  s.timers.(id) <- tm;
  tm

let[@inline] observe_in s id ~hi ~bins cycles =
  let tm = if id < Array.length s.timers then Array.unsafe_get s.timers id else no_timer in
  let tm = if tm != no_timer then tm else new_timer s id ~hi ~bins in
  Stats.Online.add_int tm.online cycles;
  Stats.Histogram.add_int tm.hist cycles

let counted s id = id >= 0 && id < Bytes.length s.counted && Bytes.get s.counted id <> '\000'
let gauged s id = id >= 0 && id < Bytes.length s.gauged && Bytes.get s.gauged id <> '\000'

let timer_in s id =
  if id >= 0 && id < Array.length s.timers && s.timers.(id) != no_timer then Some s.timers.(id)
  else None

(* A read never creates a scope. *)
let find_scope t ~rank ~core =
  let s = Scope_dir.find t.dir ~rank ~core in
  if s != no_scope then Some s else None

(* --- the span ring ----------------------------------------------------- *)

let append segs seg =
  let k = Array.length segs in
  let grown = Array.make (k + 1) seg in
  Array.blit segs 0 grown 0 k;
  grown

(* Move the write cursor to the next segment: the next existing one, a
   new one while the ring is below [cap], or back to the first (wrap). *)
let advance t s =
  let k = s.seg + 1 in
  if k < Array.length s.seg_ints then s.seg <- k
  else if s.allocated < t.ring_capacity then begin
    let n = min (initial_ring_slots lsl k) (t.ring_capacity - s.allocated) in
    s.seg_ints <- append s.seg_ints (Array.make (n * ring_ints) 0);
    s.allocated <- s.allocated + n;
    s.seg <- k
  end
  else s.seg <- 0;
  s.cur_ints <- s.seg_ints.(s.seg);
  s.cur_len <- Array.length s.cur_ints / ring_ints;
  s.off <- 0

(* [c] is a label code ({!Fnv.Label.code}). *)
let push_span t s c ~start ~finish ~depth =
  if s.off = s.cur_len then advance t s;
  (* Ring wraparound overwrites the oldest span. That loss used to be
     visible only through arithmetic on [written]; count it as a
     first-class per-scope metric so exports and tools can warn. *)
  if s.written >= t.ring_capacity then add_in s dropped_spans_metric 1;
  let i = s.off * ring_ints in
  let ints = s.cur_ints in
  Array.unsafe_set ints i start;
  Array.unsafe_set ints (i + 1) finish;
  Array.unsafe_set ints (i + 2) depth;
  Array.unsafe_set ints (i + 3) t.completed;
  Array.unsafe_set ints (i + 4) c;
  s.off <- s.off + 1;
  s.written <- s.written + 1;
  t.completed <- t.completed + 1;
  if c >= 0 then Fnv.Acc.label_int4 t.digest (Fnv.Label.of_int c) s.s_rank s.s_core start finish
  else begin
    Fnv.Acc.code t.digest t.names c;
    Fnv.Acc.int t.digest s.s_rank;
    Fnv.Acc.int3 t.digest s.s_core start finish
  end

(* --- run-time names ----------------------------------------------------- *)

(* Rings overwrite spans, so once [t.names] reaches [names_limit] it is
   rebuilt from the codes still held in rings and open spans: it holds at
   most about twice the names in use, and a stream of one-off names costs
   what the spans that carry them do. *)
let compact_names t =
  let old = t.names and kept = Fnv.Names.create () in
  let keep a i =
    let c = a.(i) in
    if c < 0 then
      a.(i) <-
        lnot
          (Fnv.Names.intern kept ~cat:(Fnv.Names.cat old (lnot c))
             ~name:(Fnv.Names.name old (lnot c)))
  in
  for k = 0 to t.n_scopes - 1 do
    Array.iter
      (fun ints ->
        for j = 0 to (Array.length ints / ring_ints) - 1 do
          keep ints ((j * ring_ints) + 4)
        done)
      t.scopes.(k).seg_ints
  done;
  for i = 0 to (Array.length t.opens / open_ints) - 1 do
    if t.opens.(i * open_ints) >= 0 then keep t.opens ((i * open_ints) + 4)
  done;
  t.names <- kept;
  t.names_limit <- max min_names_limit (2 * Fnv.Names.count kept)

let code t ~cat ~name =
  if Fnv.Names.count t.names >= t.names_limit then compact_names t;
  Fnv.Label.code t.names ~cat ~name

let local_names t = Fnv.Names.count t.names

(* --- open spans -------------------------------------------------------- *)

let open_mask t = (Array.length t.opens / open_ints) - 1

let rec open_slot t h i =
  let x = Array.unsafe_get t.opens (i * open_ints) in
  if x = h || x < 0 then i else open_slot t h ((i + 1) land open_mask t)

let place_open t ~h ~start ~depth ~scope ~label =
  let a = open_slot t h (h land open_mask t) * open_ints in
  t.opens.(a) <- h;
  t.opens.(a + 1) <- start;
  t.opens.(a + 2) <- depth;
  t.opens.(a + 3) <- scope;
  t.opens.(a + 4) <- label

let grow_opens t =
  let old = t.opens in
  t.opens <- Array.make (max 32 (2 * (Array.length old / open_ints)) * open_ints) (-1);
  for i = 0 to (Array.length old / open_ints) - 1 do
    let a = i * open_ints in
    if old.(a) >= 0 then
      place_open t ~h:old.(a) ~start:old.(a + 1) ~depth:old.(a + 2) ~scope:old.(a + 3)
        ~label:old.(a + 4)
  done

(* Empty slot [i] and shift later members of its probe run back over it,
   so every lookup still stops at the first empty slot. *)
let rec shift_open t mask hole j =
  let h = t.opens.(j * open_ints) in
  if h < 0 then hole
  else begin
    let home = h land mask in
    let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
    if stays then shift_open t mask hole ((j + 1) land mask)
    else begin
      Array.blit t.opens (j * open_ints) t.opens (hole * open_ints) open_ints;
      shift_open t mask j ((j + 1) land mask)
    end
  end

let delete_open t i =
  let mask = open_mask t in
  let hole = shift_open t mask i ((i + 1) land mask) in
  t.opens.(hole * open_ints) <- -1;
  t.n_open <- t.n_open - 1

let span_begin_code t c ~rank ~core ~now =
  if not t.enabled then null_handle
  else begin
    let s = span_scope t ~rank ~core in
    let h = t.next_handle in
    t.next_handle <- h + 1;
    if 2 * (t.n_open + 1) > Array.length t.opens / open_ints then grow_opens t;
    place_open t ~h ~start:now ~depth:s.depth ~scope:s.s_index ~label:c;
    t.n_open <- t.n_open + 1;
    s.depth <- s.depth + 1;
    h
  end

let span_begin_l t (l : label) ~rank ~core ~now = span_begin_code t (l :> int) ~rank ~core ~now

let span_begin t ~cat ~name ~rank ~core ~now =
  if not t.enabled then null_handle else span_begin_code t (code t ~cat ~name) ~rank ~core ~now

(* Slot of open handle [h], or -1. *)
let find_open t h =
  if h < 0 || t.n_open = 0 then -1
  else
    let i = open_slot t h (h land open_mask t) in
    if t.opens.(i * open_ints) = h then i else -1

(* A handle opened while enabled is closed even if the collector has been
   disabled since, so the open table and the scope's depth stay balanced;
   only the recording of the span depends on [enabled]. *)
let span_end t h ~now =
  let i = find_open t h in
  if i >= 0 then begin
    let a = i * open_ints in
    let start = t.opens.(a + 1) and depth = t.opens.(a + 2) in
    let s = t.scopes.(t.opens.(a + 3)) in
    let c = t.opens.(a + 4) in
    delete_open t i;
    if s.depth > 0 then s.depth <- s.depth - 1;
    if t.enabled then push_span t s c ~start ~finish:now ~depth
  end

let abandon_open t h =
  let i = find_open t h in
  if i >= 0 then begin
    let s = t.scopes.(t.opens.((i * open_ints) + 3)) in
    delete_open t i;
    if s.depth > 0 then s.depth <- s.depth - 1
  end

let span_record_code t c ~rank ~core ~start ~finish =
  let s = span_scope t ~rank ~core in
  push_span t s c ~start ~finish ~depth:s.depth

let span_record_l t (l : label) ~rank ~core ~start ~finish =
  if t.enabled then span_record_code t (l :> int) ~rank ~core ~start ~finish

let span_record t ~cat ~name ~rank ~core ~start ~finish =
  if t.enabled then span_record_code t (code t ~cat ~name) ~rank ~core ~start ~finish

let open_count t = t.n_open
let span_count t = t.completed

let dropped_spans t =
  let n = ref 0 in
  for i = 0 to t.n_scopes - 1 do
    let s = t.scopes.(i) in
    n := !n + max 0 (s.written - t.ring_capacity)
  done;
  !n

(* Ring slot [i] of [s] as (segment, first int). *)
let locate s i =
  let rec go k i =
    let n = Array.length s.seg_ints.(k) / ring_ints in
    if i < n then (k, i * ring_ints) else go (k + 1) (i - n)
  in
  go 0 i

let spans t =
  let out = ref [] in
  List.iter
    (fun s ->
      let retained = min s.written t.ring_capacity in
      for j = s.written - retained to s.written - 1 do
        let k, a = locate s (j mod t.ring_capacity) in
        let ints = s.seg_ints.(k) in
        let c = ints.(a + 4) in
        out :=
          {
            cat = Fnv.Label.code_cat t.names c;
            name = Fnv.Label.code_name t.names c;
            rank = s.s_rank;
            core = s.s_core;
            start = ints.(a);
            finish = ints.(a + 1);
            depth = ints.(a + 2);
            seq = ints.(a + 3);
          }
          :: !out
      done)
    (spanned_scopes t);
  (* total order: start cycle, then scope, then global completion
     sequence — equal-start spans sort deterministically no matter what
     order the scopes were created in *)
  List.sort
    (fun a b ->
      let c = Int.compare a.start b.start in
      if c <> 0 then c
      else
        let c = Int.compare a.rank b.rank in
        if c <> 0 then c
        else
          let c = Int.compare a.core b.core in
          if c <> 0 then c else Int.compare a.seq b.seq)
    (List.rev !out)

let digest t = Fnv.Acc.value t.digest

(* --- metrics ----------------------------------------------------------- *)

let add t ~rank ~core (m : Metric.counter) by = if t.enabled then add_in (scope t ~rank ~core) m by
let count t m = add t ~rank:node_scope ~core:node_scope m 1
let set t ~rank ~core (m : Metric.gauge) v = if t.enabled then set_in (scope t ~rank ~core) m v

let observe t ~rank ~core (m : Metric.timer) cycles =
  if t.enabled then begin
    let s = scope t ~rank ~core in
    match Array.unsafe_get Metric.timers.infos m with
    | Some i -> observe_in s m ~hi:i.hi ~bins:Metric.default_bins cycles
    | None -> observe_in s m ~hi:Metric.default_hi ~bins:Metric.default_bins cycles
  end

let incr t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name ?(by = 1) () =
  if t.enabled then
    add_in (scope t ~rank ~core) (Metric.resolve Metric.counters ~subsystem ~name) by

let set_gauge t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name v =
  if t.enabled then set_in (scope t ~rank ~core) (Metric.resolve Metric.gauges ~subsystem ~name) v

let observe_cycles t ?(rank = node_scope) ?(core = node_scope) ?(hi = Metric.default_hi)
    ?(bins = Metric.default_bins) ~subsystem ~name cycles =
  if t.enabled then
    observe_in (scope t ~rank ~core)
      (Metric.resolve Metric.timers ~subsystem ~name)
      ~hi ~bins cycles

let counter_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  let id = Metric.find Metric.counters ~subsystem ~name in
  match find_scope t ~rank ~core with
  | Some s when counted s id -> s.counts.(id)
  | _ -> 0

let counter_total t ~subsystem ~name =
  let id = Metric.find Metric.counters ~subsystem ~name in
  let n = ref 0 in
  for i = 0 to t.n_scopes - 1 do
    let s = t.scopes.(i) in
    if counted s id then n := !n + s.counts.(id)
  done;
  !n

let gauge_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  let id = Metric.find Metric.gauges ~subsystem ~name in
  match find_scope t ~rank ~core with
  | Some s when gauged s id -> Some s.gauges.(id)
  | _ -> None

let find_timer t ~rank ~core ~subsystem ~name =
  let id = Metric.find Metric.timers ~subsystem ~name in
  match find_scope t ~rank ~core with Some s -> timer_in s id | None -> None

let timer_stats t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.online) (find_timer t ~rank ~core ~subsystem ~name)

let timer_histogram t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.hist) (find_timer t ~rank ~core ~subsystem ~name)

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

let timer_value tm =
  let o = tm.online in
  let h = tm.hist in
  (* bin interpolation can land outside the observed extremes when a
     distribution is much tighter than the bin width; clamp so the
     reported quantiles always lie within the data *)
  let pct p =
    Float.max (Stats.Online.min o) (Float.min (Stats.Online.max o) (Stats.Histogram.percentile h p))
  in
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
    }

let snapshot t =
  let key reg id s =
    let names = reg.Metric.names in
    { subsystem = Fnv.Names.cat names id; name = Fnv.Names.name names id;
      rank = s.s_rank; core = s.s_core }
  in
  (* [rank] orders the kinds of one key: timer, gauge, counter *)
  let out = ref [] in
  for i = 0 to t.n_scopes - 1 do
    let s = t.scopes.(i) in
    for id = 0 to Bytes.length s.counted - 1 do
      if Bytes.get s.counted id <> '\000' then
        out := (2, { key = key Metric.counters id s; value = Counter s.counts.(id) }) :: !out
    done;
    for id = 0 to Bytes.length s.gauged - 1 do
      if Bytes.get s.gauged id <> '\000' then
        out := (1, { key = key Metric.gauges id s; value = Gauge s.gauges.(id) }) :: !out
    done;
    Array.iteri
      (fun id tm ->
        if tm != no_timer then
          out := (0, { key = key Metric.timers id s; value = timer_value tm }) :: !out)
      s.timers
  done;
  List.sort
    (fun (ka, a) (kb, b) ->
      let c = String.compare a.key.subsystem b.key.subsystem in
      if c <> 0 then c
      else
        let c = String.compare a.key.name b.key.name in
        if c <> 0 then c
        else
          let c = Int.compare a.key.rank b.key.rank in
          if c <> 0 then c
          else
            let c = Int.compare a.key.core b.key.core in
            if c <> 0 then c else Int.compare ka kb)
    !out
  |> List.map snd

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
  w_i64 (digest t);
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
  let opens = ref [] in
  for i = 0 to (Array.length t.opens / open_ints) - 1 do
    if t.opens.(i * open_ints) >= 0 then opens := i :: !opens
  done;
  let opens =
    List.sort (fun i j -> Int.compare t.opens.(i * open_ints) t.opens.(j * open_ints)) !opens
  in
  w_i (List.length opens);
  List.iter
    (fun i ->
      let a = i * open_ints in
      let s = t.scopes.(t.opens.(a + 3)) and c = t.opens.(a + 4) in
      w_i t.opens.(a);
      w_s (Fnv.Label.code_cat t.names c);
      w_s (Fnv.Label.code_name t.names c);
      w_i s.s_rank;
      w_i s.s_core;
      w_i t.opens.(a + 1);
      w_i t.opens.(a + 2))
    opens;
  let spanned = spanned_scopes t in
  w_i (List.length spanned);
  List.iter
    (fun s ->
      w_i s.s_rank;
      w_i s.s_core;
      w_i s.depth)
    spanned;
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
  Scope_dir.clear t.dir;
  t.scopes <- [||];
  t.n_scopes <- 0;
  t.opens <- [||];
  t.n_open <- 0;
  t.next_handle <- 0;
  Fnv.Acc.reset t.digest;
  t.completed <- 0;
  Fnv.Names.clear t.names;
  t.names_limit <- min_names_limit

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
