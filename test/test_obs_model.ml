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

(* Scopes include the control system's [node_scope] and the CIOD worker
   lanes (cores 16 and up). *)
let scopes =
  [| (Obs.node_scope, Obs.node_scope); (0, 0); (0, 1); (1, 0); (1, 3); (2, 16); (2, 17);
     (3, 19); (Obs.node_scope, 16) |]

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

let subsystems = [| "syscall"; "cio"; "obs" |]
let metric_names = [| "pwrite"; "dropped_spans"; "service_cycles" |]

type obs_op =
  | Begin of { cat : int; name : int; scope : int; now : int }
  | End of { pick : int; now : int }  (** pick < 0: the null handle *)
  | Record of { cat : int; name : int; scope : int; start : int; len : int }
  | Abandon of int
  | Incr of { sub : int; name : int; scope : int; by : int option }
  | Set_gauge of { sub : int; name : int; scope : int; v : int }
  | Observe of { sub : int; name : int; scope : int; cycles : int; small : bool }
  | O_enable of bool
  | O_reset

let show_obs_op = function
  | Begin { cat; name; scope; now } -> Printf.sprintf "Begin(%d,%d,scope %d,@%d)" cat name scope now
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
  | O_enable b -> Printf.sprintf "Enable %b" b
  | O_reset -> "Reset"

let gen_obs_op =
  QCheck.Gen.(
    let scope = int_bound (Array.length scopes - 1) in
    let metric f = map3 f (int_bound 2) (int_bound 2) scope in
    frequency
      [
        ( 6,
          map
            (fun (cat, name, scope, now) -> Begin { cat; name; scope; now })
            (quad (int_bound 3) (int_bound 4) scope (int_bound 5_000)) );
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
   hashtable graph took 79 minor words per pair. *)

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
  if words > float_of_int (55 * n) then
    Alcotest.failf "mint+link: %.1f minor words per pair, more than 55" (words /. float_of_int n)

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
      Alcotest.(check string) "entry" (name ^ ".entry") (Sysreq.request_entry_name req);
      Alcotest.(check string) "exit" (name ^ ".exit") (Sysreq.request_exit_name req);
      Alcotest.(check string) "service" ("service." ^ name) (Sysreq.request_service_name req);
      check_int "hash" (Hashtbl.hash name) (Sysreq.request_name_hash req))
    every_kind;
  check_int "one sample of every kind" 45
    (List.length (List.sort_uniq compare (List.map snd every_kind)))

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_causal_model; prop_obs_model ]
  @ [
      Alcotest.test_case "span_end after disable closes the handle" `Quick
        test_span_end_after_disable;
      Alcotest.test_case "causal mint+link allocation guard" `Quick test_causal_alloc;
      Alcotest.test_case "per-kind syscall names" `Quick test_request_names;
    ]
