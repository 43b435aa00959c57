(* Model tests for the collector storage: [Bg_obs.Causal] and
   [Bg_obs.Obs] against the reference implementations in
   [obs_reference.ml], driven by the same random operations and compared
   on every observable after every operation — nodes, edges, lookups,
   critical paths, spans, metrics, digests and capture bytes. Plus the
   [span_end]-after-disable fix, an allocation guard on the causal hot
   path, and the per-kind syscall names. *)

open Bg_engine
open Bg_kabi
module Causal = Bg_obs.Causal
module Obs = Bg_obs.Obs
module C_ref = Obs_reference.Causal
module O_ref = Obs_reference.Obs

let check_int = Alcotest.(check int)

(* Scopes include the control system's [node_scope], the CIOD worker
   lanes (cores 16 and up) and two scopes below -1, which the collectors
   keep off their dense directory. *)
let scopes =
  [| (Obs.node_scope, Obs.node_scope); (0, 0); (0, 1); (1, 0); (1, 3); (2, 16); (2, 17);
     (3, 19); (Obs.node_scope, 16); (-3, 2); (1, -4) |]

let cats = [| "syscall"; "cio"; "dma"; "coll" |]
let names = [| "pwrite.entry"; "pwrite.exit"; "deliver"; "service.pwrite"; "" |]
let capture_hex f =
  let b = Buffer.create 256 in
  f b;
  Fnv.to_hex (Fnv.add_string Fnv.empty (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Causal *)

type endpoint = Live of int | Unknown of int | No_ctx

type causal_op =
  | Mint of { chain : bool; cat : int; name : int; scope : int; now : int }
  | Burst of int  (** that many chained mints, round-robin over the scopes *)
  | Link of { kind : int; src : endpoint; dst : endpoint }
  | C_enable of bool
  | C_reset

let show_endpoint = function
  | Live k -> Printf.sprintf "Live %d" k
  | Unknown id -> Printf.sprintf "Unknown %d" id
  | No_ctx -> "None"

let show_causal_op = function
  | Mint { chain; cat; name; scope; now } ->
    Printf.sprintf "Mint(chain=%b,%d,%d,scope %d,@%d)" chain cat name scope now
  | Burst n -> Printf.sprintf "Burst %d" n
  | Link { kind; src; dst } ->
    Printf.sprintf "Link(%d,%s,%s)" kind (show_endpoint src) (show_endpoint dst)
  | C_enable b -> Printf.sprintf "Enable %b" b
  | C_reset -> "Reset"

let kinds =
  Causal.[| Send_recv; Inject_complete; Request_reply; Parent_child |]

let ref_kinds = C_ref.[| Send_recv; Inject_complete; Request_reply; Parent_child |]

let ref_kind_index = function
  | C_ref.Send_recv -> 0
  | C_ref.Inject_complete -> 1
  | C_ref.Request_reply -> 2
  | C_ref.Parent_child -> 3

let kind_index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

let node_tuple (n : Causal.node) = (n.id, n.cat, n.name, n.rank, n.core, n.at)
let ref_node_tuple (n : C_ref.node) = (n.id, n.cat, n.name, n.rank, n.core, n.at)

let gen_causal_op =
  QCheck.Gen.(
    let endpoint =
      frequency
        [ (6, map (fun k -> Live k) nat); (2, map (fun id -> Unknown id) nat); (1, return No_ctx) ]
    in
    frequency
      [
        ( 8,
          map
            (fun (chain, cat, name, scope, now) -> Mint { chain; cat; name; scope; now })
            (tup5 (frequency [ (3, return true); (1, return false) ]) (int_bound 3) (int_bound 4)
               (int_bound (Array.length scopes - 1))
               (* mostly a few distinct cycles, so critical-path ties are common *)
               (frequency [ (3, int_bound 6); (1, int_bound 5_000) ])) );
        (1, map (fun n -> Burst n) (int_range 1 1_200));
        (6, map3 (fun kind src dst -> Link { kind; src; dst }) (int_bound 3) endpoint endpoint);
        (1, map (fun b -> C_enable b) (frequency [ (3, return true); (1, return false) ]));
        (1, return C_reset);
      ])

(* Compare every observable of the two graphs. [live] holds the ids
   minted so far (newest first); both sides mint the same ids, which is
   itself checked at every mint. *)
let causal_agree g r live =
  let fail what = Alcotest.failf "causal: %s differs" what in
  if Causal.node_count g <> C_ref.node_count r then fail "node_count";
  if Causal.edge_count g <> C_ref.edge_count r then fail "edge_count";
  if Causal.dropped g <> C_ref.dropped r then fail "dropped";
  if not (Fnv.equal (Causal.digest g) (C_ref.digest r)) then fail "digest";
  if List.map node_tuple (Causal.nodes g) <> List.map ref_node_tuple (C_ref.nodes r) then
    fail "nodes";
  if
    List.map (fun (e : Causal.edge) -> (kind_index e.kind, e.src, e.dst)) (Causal.edges g)
    <> List.map (fun (e : C_ref.edge) -> (ref_kind_index e.kind, e.src, e.dst)) (C_ref.edges r)
  then fail "edges";
  (* every live node while the graph is small; the newest few and the
     first once it is large *)
  let probes =
    Causal.none :: 12_345
    :: (if List.compare_length_with live 64 <= 0 then live
        else List.filteri (fun i _ -> i < 8) live @ [ List.nth live (List.length live - 1) ])
  in
  List.iter
    (fun id ->
      if Option.map node_tuple (Causal.find g id) <> Option.map ref_node_tuple (C_ref.find r id)
      then fail "find";
      if
        List.map node_tuple (Causal.critical_path g id)
        <> List.map ref_node_tuple (C_ref.critical_path r id)
      then fail "critical_path")
    probes;
  Array.iter
    (fun cat ->
      Array.iter
        (fun name ->
          if Causal.last_matching g ~cat ~name <> C_ref.last_matching r ~cat ~name then
            fail "last_matching")
        names)
    cats;
  if capture_hex (Causal.capture g) <> capture_hex (C_ref.capture r) then fail "capture"

let prop_causal_model =
  QCheck.Test.make ~name:"causal columns match the list-and-hashtable reference" ~count:150
    (QCheck.make
       ~print:(fun (max_nodes, ops) ->
         Printf.sprintf "max_nodes %d: %s" max_nodes
           (String.concat "; " (List.map show_causal_op ops)))
       QCheck.Gen.(
         pair
           (oneof [ int_range 1 8; return 40; return 2_100; return 262_144 ])
           (list_size (0 -- 40) gen_causal_op)))
    (fun (max_nodes, ops) ->
      let g = Causal.create ~seed:3 ~max_nodes ~enabled:true () in
      let r = C_ref.create ~seed:3 ~max_nodes ~enabled:true () in
      let live = ref [] in
      let mint ~chain ~cat ~name ~scope ~now =
        let rank, core = scopes.(scope) in
        let a = Causal.mint g ~chain ~cat ~name ~rank ~core ~now () in
        let b = C_ref.mint r ~chain ~cat ~name ~rank ~core ~now () in
        if a <> b then Alcotest.failf "mint returned %d, reference %d" a b;
        if a <> Causal.none then live := a :: !live
      in
      let endpoint = function
        | Live k -> (
          match !live with [] -> Causal.none | l -> List.nth l (k mod List.length l))
        | Unknown id -> id
        | No_ctx -> Causal.none
      in
      List.iter
        (fun op ->
          (match op with
          | Mint { chain; cat; name; scope; now } ->
            mint ~chain ~cat:cats.(cat) ~name:names.(name) ~scope ~now
          | Burst n ->
            for i = 0 to n - 1 do
              mint ~chain:true ~cat:cats.(i mod 4) ~name:names.(i mod 5)
                ~scope:(i mod Array.length scopes) ~now:(i * 3)
            done
          | Link { kind; src; dst } ->
            let src = endpoint src and dst = endpoint dst in
            Causal.link g kinds.(kind) ~src ~dst;
            C_ref.link r ref_kinds.(kind) ~src ~dst
          | C_enable b ->
            Causal.set_enabled g b;
            C_ref.set_enabled r b
          | C_reset ->
            Causal.reset g;
            C_ref.reset r;
            live := []);
          causal_agree g r !live)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Obs *)

let subsystems = [| "syscall"; "cio"; "obs"; "ciod" |]
let metric_names = [| "pwrite"; "dropped_spans"; "service_cycles"; "ship_requests"; "queue_depth" |]

(* Declared handles and the names the reference is driven with; their
   names are among the ones above, so the string API and the handles
   meet in the same slots. *)
let pwrite_kind = Sysreq.request_kind (Sysreq.Pwrite { fd = 3; data = Bytes.empty; offset = 0 })

let counter_handles =
  Bg_kabi.Metrics.
    [|
      (Kernel.syscalls.(pwrite_kind), "syscall", "pwrite");
      (Cio.ship_requests, "cio", "ship_requests");
    |]

let gauge_handles = Bg_kabi.Metrics.[| (Ciod.queue_depth, "ciod", "queue_depth") |]

let timer_handles =
  Bg_kabi.Metrics.
    [|
      (Cio.service_cycles, "cio", "service_cycles");
      (Kernel.syscall_cycles.(pwrite_kind), "syscall", "pwrite");
    |]

type obs_op =
  | Begin of { cat : int; name : int; scope : int; now : int }
  | Churn of { n : int; keep : int }
      (** [n] begins round-robin over the scopes, each ending the one before
          unless that one's index is a multiple of [keep]: handles outrun
          the open-span table while older ones stay open, so probe runs
          form and later ends shift them *)
  | End of { pick : int; now : int }  (** pick < 0: the null handle *)
  | Record of { cat : int; name : int; scope : int; start : int; len : int }
  | Abandon of int
  | Incr of { sub : int; name : int; scope : int; by : int option }
  | Set_gauge of { sub : int; name : int; scope : int; v : int }
  | Observe of { sub : int; name : int; scope : int; cycles : int; small : bool }
  | H_add of { h : int; scope : int; by : int }
  | H_set of { h : int; scope : int; v : int }
  | H_observe of { h : int; scope : int; cycles : int }
  | O_enable of bool
  | O_reset

let show_obs_op = function
  | Begin { cat; name; scope; now } -> Printf.sprintf "Begin(%d,%d,scope %d,@%d)" cat name scope now
  | Churn { n; keep } -> Printf.sprintf "Churn(%d,keep %d)" n keep
  | End { pick; now } -> Printf.sprintf "End(%d,@%d)" pick now
  | Record { cat; name; scope; start; len } ->
    Printf.sprintf "Record(%d,%d,scope %d,%d+%d)" cat name scope start len
  | Abandon k -> Printf.sprintf "Abandon %d" k
  | Incr { sub; name; scope; by } ->
    Printf.sprintf "Incr(%d,%d,scope %d,%s)" sub name scope
      (match by with Some b -> string_of_int b | None -> "-")
  | Set_gauge { sub; name; scope; v } -> Printf.sprintf "Gauge(%d,%d,scope %d,%d)" sub name scope v
  | Observe { sub; name; scope; cycles; small } ->
    Printf.sprintf "Observe(%d,%d,scope %d,%d,small=%b)" sub name scope cycles small
  | H_add { h; scope; by } -> Printf.sprintf "Add(handle %d,scope %d,%d)" h scope by
  | H_set { h; scope; v } -> Printf.sprintf "Set(handle %d,scope %d,%d)" h scope v
  | H_observe { h; scope; cycles } -> Printf.sprintf "Observe(handle %d,scope %d,%d)" h scope cycles
  | O_enable b -> Printf.sprintf "Enable %b" b
  | O_reset -> "Reset"

let gen_obs_op =
  QCheck.Gen.(
    let scope = int_bound (Array.length scopes - 1) in
    let metric f =
      map3 f
        (int_bound (Array.length subsystems - 1))
        (int_bound (Array.length metric_names - 1))
        scope
    in
    frequency
      [
        ( 6,
          map
            (fun (cat, name, scope, now) -> Begin { cat; name; scope; now })
            (quad (int_bound 3) (int_bound 4) scope (int_bound 5_000)) );
        (1, map2 (fun n keep -> Churn { n; keep }) (int_range 1 300) (int_range 2 16));
        (6, map2 (fun pick now -> End { pick; now }) (int_range (-1) 1_000) (int_bound 5_000));
        ( 5,
          map
            (fun ((cat, name, scope), (start, len)) -> Record { cat; name; scope; start; len })
            (pair
               (triple (int_bound 3) (int_bound 4) scope)
               (pair (int_bound 5_000) (int_bound 300))) );
        (1, map (fun k -> Abandon k) (int_range (-1) 1_000));
        ( 3,
          metric (fun sub name scope -> (sub, name, scope)) >>= fun (sub, name, scope) ->
          map (fun by -> Incr { sub; name; scope; by }) (opt (int_range (-3) 9)) );
        ( 2,
          metric (fun sub name scope -> (sub, name, scope)) >>= fun (sub, name, scope) ->
          map (fun v -> Set_gauge { sub; name; scope; v }) (int_range (-50) 50) );
        ( 3,
          metric (fun sub name scope -> (sub, name, scope)) >>= fun (sub, name, scope) ->
          map2
            (fun cycles small -> Observe { sub; name; scope; cycles; small })
            (int_bound 3_000_000) bool );
        ( 3,
          map3
            (fun h scope by -> H_add { h; scope; by })
            (int_bound (Array.length counter_handles - 1))
            scope (int_range (-3) 9) );
        ( 2,
          map3
            (fun h scope v -> H_set { h; scope; v })
            (int_bound (Array.length gauge_handles - 1))
            scope (int_range (-50) 50) );
        ( 3,
          map3
            (fun h scope cycles -> H_observe { h; scope; cycles })
            (int_bound (Array.length timer_handles - 1))
            scope (int_bound 3_000_000) );
        (1, map (fun b -> O_enable b) (frequency [ (3, return true); (1, return false) ]));
        (1, return O_reset);
      ])

let span_tuple (s : Obs.span) = (s.cat, s.name, s.rank, s.core, s.start, s.finish, s.depth, s.seq)

let ref_span_tuple (s : O_ref.span) =
  (s.cat, s.name, s.rank, s.core, s.start, s.finish, s.depth, s.seq)

let metric_string ~sub ~name ~rank ~core v =
  Printf.sprintf "%s.%s[%d,%d]=%s" sub name rank core v

let timer_string ~n ~mean ~min ~max ~sum ~p50 ~p90 ~p99 ~p999 =
  Printf.sprintf "timer n=%d %h %h %h %h %h %h %h %h" n mean min max sum p50 p90 p99 p999

let snapshot_strings o =
  List.map
    (fun (m : Obs.metric) ->
      let k = m.key in
      metric_string ~sub:k.subsystem ~name:k.name ~rank:k.rank ~core:k.core
        (match m.value with
        | Obs.Counter v -> Printf.sprintf "counter %d" v
        | Obs.Gauge v -> Printf.sprintf "gauge %d" v
        | Obs.Timer { n; mean; min; max; sum; p50; p90; p99; p999 } ->
          timer_string ~n ~mean ~min ~max ~sum ~p50 ~p90 ~p99 ~p999))
    (Obs.snapshot o)

let ref_snapshot_strings o =
  List.map
    (fun (m : O_ref.metric) ->
      let k = m.key in
      metric_string ~sub:k.subsystem ~name:k.name ~rank:k.rank ~core:k.core
        (match m.value with
        | O_ref.Counter v -> Printf.sprintf "counter %d" v
        | O_ref.Gauge v -> Printf.sprintf "gauge %d" v
        | O_ref.Timer { n; mean; min; max; sum; p50; p90; p99; p999 } ->
          timer_string ~n ~mean ~min ~max ~sum ~p50 ~p90 ~p99 ~p999))
    (O_ref.snapshot o)

let obs_agree o r =
  let fail what = Alcotest.failf "obs: %s differs" what in
  if List.map span_tuple (Obs.spans o) <> List.map ref_span_tuple (O_ref.spans r) then fail "spans";
  if Obs.span_count o <> O_ref.span_count r then fail "span_count";
  if Obs.dropped_spans o <> O_ref.dropped_spans r then fail "dropped_spans";
  if Obs.open_count o <> O_ref.open_count r then fail "open_count";
  if not (Fnv.equal (Obs.digest o) (O_ref.digest r)) then fail "digest";
  if snapshot_strings o <> ref_snapshot_strings r then fail "snapshot";
  Array.iter
    (fun subsystem ->
      Array.iter
        (fun name ->
          if Obs.counter_total o ~subsystem ~name <> O_ref.counter_total r ~subsystem ~name then
            fail "counter_total";
          Array.iter
            (fun (rank, core) ->
              if
                Obs.counter_value o ~rank ~core ~subsystem ~name ()
                <> O_ref.counter_value r ~rank ~core ~subsystem ~name ()
              then fail "counter_value";
              if
                Obs.gauge_value o ~rank ~core ~subsystem ~name ()
                <> O_ref.gauge_value r ~rank ~core ~subsystem ~name ()
              then fail "gauge_value";
              let n_of = Option.map Stats.Online.n in
              if
                n_of (Obs.timer_stats o ~rank ~core ~subsystem ~name ())
                <> n_of (O_ref.timer_stats r ~rank ~core ~subsystem ~name ())
              then fail "timer_stats")
            scopes)
        metric_names)
    subsystems;
  if capture_hex (Obs.capture o) <> capture_hex (O_ref.capture r) then fail "capture"

let prop_obs_model =
  QCheck.Test.make ~name:"obs scope and metric tables match the polymorphic-hashtable reference"
    ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "ring_capacity %d: %s" cap (String.concat "; " (List.map show_obs_op ops)))
       QCheck.Gen.(pair (int_range 1 5) (list_size (0 -- 80) gen_obs_op)))
    (fun (ring_capacity, ops) ->
      let o = Obs.create ~ring_capacity ~enabled:true () in
      let r = O_ref.create ~ring_capacity ~enabled:true () in
      (* every handle ever issued, newest first, as (ours, reference) *)
      let handles = ref [] in
      let pick k =
        match !handles with
        | _ when k < 0 -> (Obs.null_handle, O_ref.null_handle)
        | [] -> (Obs.null_handle, O_ref.null_handle)
        | l -> List.nth l (k mod List.length l)
      in
      List.iter
        (fun op ->
          (match op with
          | Begin { cat; name; scope; now } ->
            let rank, core = scopes.(scope) and cat = cats.(cat) and name = names.(name) in
            let h = Obs.span_begin o ~cat ~name ~rank ~core ~now in
            let hr = O_ref.span_begin r ~cat ~name ~rank ~core ~now in
            handles := (h, hr) :: !handles
          | Churn { n; keep } ->
            for i = 0 to n - 1 do
              let rank, core = scopes.(i mod Array.length scopes) in
              let cat = cats.(i mod 4) and name = names.(i mod 5) in
              let h = Obs.span_begin o ~cat ~name ~rank ~core ~now:i in
              let hr = O_ref.span_begin r ~cat ~name ~rank ~core ~now:i in
              (match !handles with
              | (p, pr) :: _ when i > 0 && (i - 1) mod keep <> 0 ->
                Obs.span_end o p ~now:(i + 1);
                O_ref.span_end r pr ~now:(i + 1)
              | _ -> ());
              handles := (h, hr) :: !handles
            done
          | End { pick = k; now } ->
            let h, hr = pick k in
            Obs.span_end o h ~now;
            O_ref.span_end r hr ~now
          | Record { cat; name; scope; start; len } ->
            let rank, core = scopes.(scope) and cat = cats.(cat) and name = names.(name) in
            Obs.span_record o ~cat ~name ~rank ~core ~start ~finish:(start + len);
            O_ref.span_record r ~cat ~name ~rank ~core ~start ~finish:(start + len)
          | Abandon k ->
            let h, hr = pick k in
            Obs.abandon_open o h;
            O_ref.abandon_open r hr
          | Incr { sub; name; scope; by } ->
            let subsystem = subsystems.(sub) and name = metric_names.(name) in
            if scope = 0 then begin
              Obs.incr o ~subsystem ~name ?by ();
              O_ref.incr r ~subsystem ~name ?by ()
            end
            else begin
              let rank, core = scopes.(scope) in
              Obs.incr o ~rank ~core ~subsystem ~name ?by ();
              O_ref.incr r ~rank ~core ~subsystem ~name ?by ()
            end
          | Set_gauge { sub; name; scope; v } ->
            let rank, core = scopes.(scope) in
            let subsystem = subsystems.(sub) and name = metric_names.(name) in
            Obs.set_gauge o ~rank ~core ~subsystem ~name v;
            O_ref.set_gauge r ~rank ~core ~subsystem ~name v
          | Observe { sub; name; scope; cycles; small } ->
            let rank, core = scopes.(scope) in
            let subsystem = subsystems.(sub) and name = metric_names.(name) in
            let hi, bins = if small then (Some 1_000.0, Some 4) else (None, None) in
            Obs.observe_cycles o ~rank ~core ?hi ?bins ~subsystem ~name cycles;
            O_ref.observe_cycles r ~rank ~core ?hi ?bins ~subsystem ~name cycles
          | H_add { h; scope; by } ->
            let rank, core = scopes.(scope) and m, subsystem, name = counter_handles.(h) in
            Obs.add o ~rank ~core m by;
            O_ref.incr r ~rank ~core ~subsystem ~name ~by ()
          | H_set { h; scope; v } ->
            let rank, core = scopes.(scope) and m, subsystem, name = gauge_handles.(h) in
            Obs.set o ~rank ~core m v;
            O_ref.set_gauge r ~rank ~core ~subsystem ~name v
          | H_observe { h; scope; cycles } ->
            let rank, core = scopes.(scope) and m, subsystem, name = timer_handles.(h) in
            Obs.observe o ~rank ~core m cycles;
            O_ref.observe_cycles r ~rank ~core ~subsystem ~name cycles
          | O_enable b ->
            Obs.set_enabled o b;
            O_ref.set_enabled r b
          | O_reset ->
            Obs.reset o;
            O_ref.reset r);
          obs_agree o r)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* span_end after disable *)

let test_span_end_after_disable () =
  let o = Obs.create ~enabled:true () in
  let h = Obs.span_begin o ~cat:"t" ~name:"outer" ~rank:0 ~core:0 ~now:10 in
  Obs.set_enabled o false;
  Obs.span_end o h ~now:20;
  check_int "closed although disabled" 0 (Obs.open_count o);
  check_int "but not recorded" 0 (Obs.span_count o);
  Obs.set_enabled o true;
  let h = Obs.span_begin o ~cat:"t" ~name:"next" ~rank:0 ~core:0 ~now:30 in
  Obs.span_end o h ~now:40;
  check_int "no span left open" 0 (Obs.open_count o);
  match Obs.spans o with
  | [ s ] -> check_int "depth back to 0" 0 s.Obs.depth
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Allocation guard: one mint plus one link at 50k nodes. The list-and-
   hashtable graph took 79 minor words per pair; with string columns and
   a boxed id hash, about 3. What is left is the chunk spines and the
   small id tables, about 0.14 words per pair. *)

let test_causal_alloc () =
  let n = 50_000 in
  let g = Causal.create ~enabled:true () in
  let prev = ref Causal.none in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    let id =
      Causal.mint g ~cat:"syscall" ~name:"pwrite.entry" ~rank:(i land 31) ~core:(i land 3)
        ~now:i ()
    in
    Causal.link g Causal.Request_reply ~src:!prev ~dst:id;
    prev := id
  done;
  let words = Gc.minor_words () -. before in
  check_int "all minted" n (Causal.node_count g);
  if words > 0.2 *. float_of_int n then
    Alcotest.failf "mint+link: %.2f minor words per pair, more than 0.2" (words /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Allocation guards on the enabled hot paths: a handle-based counter,
   gauge and timer update, and a one-shot span into a warm scope. *)

let minor_words_per_call n f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_no_alloc what words =
  if words > 0.0 then Alcotest.failf "%s: %.2f minor words per call, expected 0" what words

let test_metric_alloc () =
  let o = Obs.create ~enabled:true () in
  let pwrite = pwrite_kind in
  let rank = Sys.opaque_identity 5 and core = Sys.opaque_identity 2 in
  let node = Obs.node_scope in
  check_no_alloc "add"
    (minor_words_per_call 10_000 (fun _ ->
         Obs.add o ~rank ~core Bg_kabi.Metrics.Kernel.syscalls.(pwrite) 1));
  check_no_alloc "add at node scope"
    (minor_words_per_call 10_000 (fun i ->
         Obs.add o ~rank:node ~core:node Bg_kabi.Metrics.Sched.busy_node_cycles i));
  check_no_alloc "count"
    (minor_words_per_call 10_000 (fun _ -> Obs.count o Bg_kabi.Metrics.Scheduler.jobs_started));
  check_no_alloc "set"
    (minor_words_per_call 10_000 (fun i ->
         Obs.set o ~rank ~core:node Bg_kabi.Metrics.Ciod.queue_depth i));
  check_no_alloc "observe"
    (minor_words_per_call 10_000 (fun i ->
         Obs.observe o ~rank ~core:node Bg_kabi.Metrics.Kernel.syscall_cycles.(pwrite) (i * 37)));
  check_int "counted" 10_001
    (Obs.counter_value o ~rank ~core ~subsystem:"syscall" ~name:"pwrite" ());
  check_int "observed" 10_001
    (match Obs.timer_stats o ~rank ~subsystem:"syscall" ~name:"pwrite" () with
    | Some s -> Stats.Online.n s
    | None -> 0)

let test_span_record_alloc () =
  (* a ring small enough to wrap many times, so the guard covers the
     overwrite path and the dropped-span counter too *)
  let o = Obs.create ~ring_capacity:64 ~enabled:true () in
  let rank = Sys.opaque_identity 3 and core = Sys.opaque_identity 17 in
  (* warm: the ring holds all 64 slots *)
  for i = 1 to 64 do
    Obs.span_record o ~cat:"cio" ~name:"queue_wait" ~rank ~core ~start:i ~finish:i
  done;
  check_no_alloc "span_record"
    (minor_words_per_call 10_000 (fun i ->
         Obs.span_record o ~cat:"cio" ~name:"queue_wait" ~rank ~core ~start:i ~finish:(i + 5)));
  check_int "recorded" 10_065 (Obs.span_count o);
  check_int "dropped" (10_065 - 64) (Obs.dropped_spans o)

(* With a declared label, the record paths allocate nothing: a span
   begin/end pair and a one-shot span into a ring that wraps, a chained
   mint and a link (measured between chunk and id-table growth points),
   and a trace emit. *)
let test_label_paths_alloc () =
  let l = Obs.label ~cat:"cio" ~name:"transit_request" in
  let rank = Sys.opaque_identity 3 and core = Sys.opaque_identity 17 in
  let o = Obs.create ~ring_capacity:64 ~enabled:true () in
  for i = 1 to 64 do
    Obs.span_record_l o l ~rank ~core ~start:i ~finish:i
  done;
  check_no_alloc "span_begin_l + span_end"
    (minor_words_per_call 10_000 (fun i ->
         let h = Obs.span_begin_l o l ~rank ~core ~now:i in
         Obs.span_end o h ~now:(i + 3)));
  check_no_alloc "span_record_l"
    (minor_words_per_call 10_000 (fun i ->
         Obs.span_record_l o l ~rank ~core ~start:i ~finish:(i + 5)));
  check_int "recorded" 20_066 (Obs.span_count o);
  check_int "none open" 0 (Obs.open_count o);
  (* 2,049 nodes: the id table has just doubled to 8,192 slots and node
     chunk 2 holds one node, so the next thousand mints grow nothing *)
  let g = Causal.create ~enabled:true () in
  for i = 1 to 2_049 do
    ignore (Causal.mint_l g ~chain:false l ~rank ~core ~now:i)
  done;
  ignore (Causal.mint_l g ~chain:true l ~rank ~core ~now:0);
  check_int "one edge" 1 (Causal.edge_count g);
  check_no_alloc "chained mint_l"
    (minor_words_per_call 500 (fun i -> ignore (Causal.mint_l g ~chain:true l ~rank ~core ~now:i)));
  let ids = Array.of_list (List.map (fun (n : Causal.node) -> n.id) (Causal.nodes g)) in
  check_no_alloc "link"
    (minor_words_per_call 500 (fun i ->
         Causal.link g Causal.Send_recv ~src:ids.(i) ~dst:ids.((i * 5) + 1)));
  check_int "edges" 1_003 (Causal.edge_count g);
  let sim = Sim.create () and e = Trace.label "ciod.served" in
  check_no_alloc "Sim.emit" (minor_words_per_call 10_000 (fun i -> Sim.emit sim ~label:e ~value:i))

(* A name nobody declared (a per-job span name, a DMA counter's node)
   stays in the collector that met it and folds byte by byte: ten
   thousand of them leave the label registry as it was. The graph holds
   one name per node and none past [max_nodes]; a wrapping ring keeps
   only the names its spans and open spans still carry, and those spans
   keep resolving to their names; a reset empties both. *)
let test_run_time_names_bounded () =
  let before = Fnv.Label.count () in
  let o = Obs.create ~ring_capacity:8 ~enabled:true () in
  let g = Causal.create ~max_nodes:4_000 ~enabled:true () in
  let expect = ref Fnv.empty in
  let fold text ints = expect := List.fold_left Fnv.add_int (Fnv.add_string !expect text) ints in
  let held = Obs.span_begin o ~cat:"undeclared" ~name:"held" ~rank:0 ~core:2 ~now:0 in
  for j = 0 to 9_999 do
    let name = Printf.sprintf "once.%d" j and core = j land 1 in
    Obs.span_record o ~cat:"undeclared" ~name ~rank:0 ~core ~start:j ~finish:(j + 1);
    fold ("undeclared" ^ name) [ 0; core; j; j + 1 ];
    ignore (Causal.mint g ~cat:"undeclared" ~name ~rank:0 ~core:0 ~now:j ())
  done;
  Obs.span_end o held ~now:10_000;
  fold "undeclaredheld" [ 0; 2; 0; 10_000 ];
  check_int "no label registered" before (Fnv.Label.count ());
  Alcotest.(check string) "span digest" (Fnv.to_hex !expect) (Fnv.to_hex (Obs.digest o));
  if Obs.local_names o > 256 then
    Alcotest.failf "%d run-time names held for 17 retained spans" (Obs.local_names o);
  Alcotest.(check (list string)) "retained spans keep their names"
    ("held" :: List.init 16 (fun k -> Printf.sprintf "once.%d" (9_984 + k)))
    (List.sort compare (List.map (fun (s : Obs.span) -> s.name) (Obs.spans o)));
  check_int "one graph name per node" 4_000 (Causal.local_names g);
  check_int "the rest dropped" 6_000 (Causal.dropped g);
  Alcotest.(check string) "last node's name" "once.3999"
    (List.nth (Causal.nodes g) 3_999).Causal.name;
  Obs.reset o;
  Causal.reset g;
  check_int "span names freed" 0 (Obs.local_names o);
  check_int "node names freed" 0 (Causal.local_names g);
  (* a declared label's table appears at its first fold, not before *)
  let l = Obs.label ~cat:"undeclared" ~name:"once.0" in
  Alcotest.(check bool) "no table before a fold" false (Fnv.Label.has_table l);
  Obs.span_record_l o l ~rank:0 ~core:0 ~start:0 ~finish:1;
  Alcotest.(check bool) "a table after it" true (Fnv.Label.has_table l)

(* One stream recorded twice: first through the string entry points while
   its names are undeclared (byte-by-byte folds), then through declared
   labels (table folds). Every digest, capture and export is the same.
   Trace labels are always declared: the first run splits each one's
   bytes across cat and name, so its pair is not one the collectors look
   up. *)

type stream_op =
  | S_record of { label : int; scope : int; start : int; dur : int }
  | S_begin of { label : int; scope : int; now : int }
  | S_end of { pick : int; now : int }
  | S_mint of { chain : bool; label : int; scope : int; now : int }
  | S_link of { kind : int; src : int; dst : int }
  | S_emit of { label : int; value : int }

let show_stream_op = function
  | S_record { label; scope; start; dur } ->
    Printf.sprintf "Record(%d,%d,%d,%d)" label scope start dur
  | S_begin { label; scope; now } -> Printf.sprintf "Begin(%d,%d,%d)" label scope now
  | S_end { pick; now } -> Printf.sprintf "End(%d,%d)" pick now
  | S_mint { chain; label; scope; now } -> Printf.sprintf "Mint(%b,%d,%d,%d)" chain label scope now
  | S_link { kind; src; dst } -> Printf.sprintf "Link(%d,%d,%d)" kind src dst
  | S_emit { label; value } -> Printf.sprintf "Emit(%d,%d)" label value

let stream_bases = [| ("syscall", "write.entry"); ("cio", "queue_wait"); ("dma", ""); ("", "x") |]

let gen_stream_op =
  QCheck.Gen.(
    let label = int_bound (Array.length stream_bases - 1) in
    let scope = int_bound (Array.length scopes - 1) in
    frequency
      [
        (4, map (fun (label, scope, start, dur) -> S_record { label; scope; start; dur })
             (quad label scope (int_bound 5_000) (int_bound 300)));
        ( 3,
          map3 (fun label scope now -> S_begin { label; scope; now }) label scope (int_bound 5_000)
        );
        (3, map2 (fun pick now -> S_end { pick; now }) nat (int_bound 6_000));
        (4, map (fun (chain, label, scope, now) -> S_mint { chain; label; scope; now })
             (quad bool label scope (int_bound 5_000)));
        (3, map3 (fun kind src dst -> S_link { kind; src; dst }) (int_bound 3) nat nat);
        (2, map2 (fun label value -> S_emit { label; value }) label int);
      ])

let stream_case = ref 0

let prop_label_entry_points =
  QCheck.Test.make ~name:"declared labels and string entry points record the same bytes"
    ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_stream_op ops))
       QCheck.Gen.(list_size (0 -- 60) gen_stream_op))
    (fun ops ->
      incr stream_case;
      (* names no earlier case or library module has seen *)
      let pairs =
        Array.map (fun (cat, name) -> (cat, Printf.sprintf "%s#%d" name !stream_case)) stream_bases
      in
      let run ~declared =
        let o = Obs.create ~ring_capacity:8 ~enabled:true () in
        let g = Causal.create ~seed:5 ~enabled:true () in
        let tr = Trace.create () in
        let labels =
          if declared then Array.map (fun (cat, name) -> Obs.label ~cat ~name) pairs else [||]
        in
        let trace_labels =
          Array.map
            (fun (cat, name) ->
              let text = cat ^ name in
              if declared then Trace.label text
              else
                Fnv.Label.declare ~cat:(String.sub text 0 1)
                  ~name:(String.sub text 1 (String.length text - 1)))
            pairs
        in
        let opens = ref [] and live = ref [] in
        List.iter
          (function
            | S_record { label; scope; start; dur } ->
              let rank, core = scopes.(scope) and cat, name = pairs.(label) in
              let finish = start + dur in
              if declared then Obs.span_record_l o labels.(label) ~rank ~core ~start ~finish
              else Obs.span_record o ~cat ~name ~rank ~core ~start ~finish
            | S_begin { label; scope; now } ->
              let rank, core = scopes.(scope) and cat, name = pairs.(label) in
              let h =
                if declared then Obs.span_begin_l o labels.(label) ~rank ~core ~now
                else Obs.span_begin o ~cat ~name ~rank ~core ~now
              in
              opens := h :: !opens
            | S_end { pick; now } -> (
              match !opens with
              | [] -> ()
              | l ->
                let h = List.nth l (pick mod List.length l) in
                Obs.span_end o h ~now;
                opens := List.filter (fun x -> x <> h) l)
            | S_mint { chain; label; scope; now } ->
              let rank, core = scopes.(scope) and cat, name = pairs.(label) in
              let id =
                if declared then Causal.mint_l g ~chain labels.(label) ~rank ~core ~now
                else Causal.mint g ~chain ~cat ~name ~rank ~core ~now ()
              in
              live := id :: !live
            | S_link { kind; src; dst } -> (
              match !live with
              | [] -> ()
              | l ->
                let n = List.length l in
                Causal.link g kinds.(kind)
                  ~src:(List.nth l (src mod n))
                  ~dst:(List.nth l (dst mod n)))
            | S_emit { label; value } ->
              Trace.emit tr ~cycle:(Trace.count tr) ~label:trace_labels.(label) ~value)
          ops;
        ( Fnv.to_hex (Obs.digest o),
          Fnv.to_hex (Causal.digest g),
          Fnv.to_hex (Trace.digest tr),
          capture_hex (Obs.capture o),
          capture_hex (Causal.capture g),
          [ Bg_obs.Export.chrome_trace ~causal:g o; Bg_obs.Export.spans_csv o;
            Bg_obs.Export.collapsed_stacks o ] )
      in
      let interned = run ~declared:false in
      Array.iter
        (fun (cat, name) ->
          if Fnv.Label.find ~cat ~name <> None then
            QCheck.Test.fail_reportf "%s%s entered the registry" cat name)
        pairs;
      let declared = run ~declared:true in
      let o1, c1, t1, oc1, cc1, x1 = interned and o2, c2, t2, oc2, cc2, x2 = declared in
      if o1 <> o2 then QCheck.Test.fail_report "span digest";
      if c1 <> c2 then QCheck.Test.fail_report "causal digest";
      if t1 <> t2 then QCheck.Test.fail_report "trace digest";
      if oc1 <> oc2 then QCheck.Test.fail_report "Obs.capture";
      if cc1 <> cc2 then QCheck.Test.fail_report "Causal.capture";
      if x1 <> x2 then QCheck.Test.fail_report "Export output";
      true)

(* ------------------------------------------------------------------ *)
(* The committed metric reference is the schema's own rendering. *)

let test_metrics_doc () =
  Alcotest.check_raises "a second declaration of a name"
    (Invalid_argument "Obs.Metric: cio.acks declared twice") (fun () ->
      ignore
        (Obs.Metric.counter ~subsystem:"cio" ~name:"acks" ~unit:"count"
           ~scopes:[ Obs.Metric.Rank ] "again"));
  (* [dune test] runs in _build/default/test; [dune exec] in the root *)
  let path =
    if Sys.file_exists "../doc/METRICS.md" then "../doc/METRICS.md" else "doc/METRICS.md"
  in
  let committed = In_channel.with_open_bin path In_channel.input_all in
  if committed <> Bg_kabi.Metrics.markdown () then
    Alcotest.fail "doc/METRICS.md differs from the metric schema: run `make metrics-doc`";
  (* every hot-path family resolves by name to the declared handle's slot *)
  let o = Obs.create ~enabled:true () in
  Array.iteri
    (fun k name ->
      Obs.add o ~rank:1 ~core:2 Bg_kabi.Metrics.Kernel.syscalls.(k) (k + 1);
      check_int name (k + 1) (Obs.counter_value o ~rank:1 ~core:2 ~subsystem:"syscall" ~name ()))
    Sysreq.kind_names

(* ------------------------------------------------------------------ *)
(* Per-kind syscall names: one sample request of every kind, with the
   name each kind had before the names moved into a per-kind table. *)

let every_kind =
  let fd = 3 and path = "p" in
  Sysreq.
    [
      (Getpid, "getpid"); (Gettid, "gettid"); (Get_rank, "get_rank");
      ( Clone
          { flags = nptl_clone_flags; stack_hint = 0; tls = 0; parent_tid_addr = 0;
            child_tid_addr = 0; entry = ignore },
        "clone" );
      (Set_tid_address 0, "set_tid_address"); (Exit_thread 0, "exit_thread");
      (Exit_group 0, "exit_group"); (Sigaction { signo = 1; handler = None }, "sigaction");
      (Tgkill { tid = 1; signo = 1 }, "tgkill"); (Sched_yield, "sched_yield");
      (Futex_wait { addr = 0; expected = 0 }, "futex_wait");
      (Futex_wake { addr = 0; count = 1 }, "futex_wake"); (Brk None, "brk");
      ( Mmap { length = 4096; prot = Bg_hw.Tlb.perm_rw; map_copy = false; fd = None; offset = 0 },
        "mmap" );
      (Munmap { addr = 0; length = 4096 }, "munmap");
      (Mprotect { addr = 0; length = 4096; prot = Bg_hw.Tlb.perm_rw }, "mprotect");
      (Shm_open { name = "s"; length = 4096 }, "shm_open"); (Query_map, "query_map");
      (Query_vtop 0, "query_vtop"); (Query_dirty { clear = false }, "query_dirty");
      (Query_perf Perf_read, "query_perf");
      ( Dma_inject (Bg_hw.Dma.descriptor ~kind:Bg_hw.Dma.Eager ~dst:0 ~tag:0 ~bytes:0 ()),
        "dma_inject" );
      (Dma_poll Dma_recv, "dma_poll"); (Uname, "uname");
      (Get_personality, "get_personality"); (Gettimeofday, "gettimeofday");
      (Open { path; flags = o_rdonly; mode = 0 }, "open"); (Close fd, "close");
      (Read { fd; len = 1 }, "read"); (Write { fd; data = Bytes.empty }, "write");
      (Pread { fd; len = 1; offset = 0 }, "pread");
      (Pwrite { fd; data = Bytes.empty; offset = 0 }, "pwrite");
      (Lseek { fd; offset = 0; whence = Seek_set }, "lseek"); (Fstat fd, "fstat");
      (Stat path, "stat"); (Ftruncate { fd; length = 0 }, "ftruncate"); (Unlink path, "unlink");
      (Mkdir { path; mode = 0 }, "mkdir"); (Rmdir path, "rmdir"); (Readdir path, "readdir");
      (Chdir path, "chdir"); (Getcwd, "getcwd"); (Rename { src = path; dst = path }, "rename");
      (Dup fd, "dup"); (Fsync fd, "fsync");
    ]

let test_request_names () =
  List.iter
    (fun (req, name) ->
      Alcotest.(check string) "request_name" name (Sysreq.request_name req);
      let label what l (cat, name) =
        Alcotest.(check (pair string string)) what (cat, name) Fnv.Label.(cat l, name l);
        Alcotest.(check bool) (what ^ " declared") true (Fnv.Label.find ~cat ~name = Some l)
      in
      label "span" (Sysreq.syscall_label req) ("syscall", name);
      label "entry" (Sysreq.entry_label req) ("syscall", name ^ ".entry");
      label "exit" (Sysreq.exit_label req) ("syscall", name ^ ".exit");
      label "service" (Sysreq.service_label req) ("cio", "service." ^ name);
      check_int "hash" (Hashtbl.hash name) (Sysreq.request_name_hash req))
    every_kind;
  check_int "one sample of every kind" 45
    (List.length (List.sort_uniq compare (List.map snd every_kind)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_causal_model; prop_obs_model; prop_label_entry_points ]
  @ [
      Alcotest.test_case "span_end after disable closes the handle" `Quick
        test_span_end_after_disable;
      Alcotest.test_case "causal mint+link allocation guard" `Quick test_causal_alloc;
      Alcotest.test_case "handle-based metrics allocate nothing" `Quick test_metric_alloc;
      Alcotest.test_case "span_record into a warm scope allocates nothing" `Quick
        test_span_record_alloc;
      Alcotest.test_case "declared-label record paths allocate nothing" `Quick
        test_label_paths_alloc;
      Alcotest.test_case "run-time names stay in their collector" `Quick
        test_run_time_names_bounded;
      Alcotest.test_case "per-kind syscall names" `Quick test_request_names;
      Alcotest.test_case "doc/METRICS.md matches the metric schema" `Quick test_metrics_doc;
    ]
