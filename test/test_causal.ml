(* Tests for causal tracing: same-seed graph determinism, zero-cost when
   the knob is off, context surviving CIO retransmission (at-most-once =
   one Request->Reply edge), critical-path attribution tiling the path
   exactly, flow-event JSON, and the span-ring overflow drop counter. *)

open Bg_engine
open Bg_kabi
module Obs = Bg_obs.Obs
module Causal = Bg_obs.Causal
module Accounting = Bg_obs.Accounting
module Export = Bg_obs.Export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* An I/O + allreduce workload on a small CNK cluster: syscalls ship to
   CIOD (Request->Reply edges), the collective contributes/delivers
   (Send_recv edges), the scheduler is not involved. *)

let nodes = 4

let allreduce_run ~seed ~causal_on =
  let cluster = Cnk.Cluster.create ~dims:(2, 2, 1) ~seed () in
  let machine = Cnk.Cluster.machine cluster in
  if causal_on then begin
    Obs.set_enabled (Machine.obs machine) true;
    Accounting.set_enabled (Machine.acct machine) true;
    Causal.set_enabled (Machine.causal machine) true
  end;
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric machine in
  for r = 0 to nodes - 1 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let coll = Bg_msg.Mpi.Coll.create fabric ~participants:nodes in
  let entry, _ = Bg_apps.Allreduce_bench.program ~fabric ~coll ~iterations:3 () in
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"allreduce" (Image.executable ~name:"allreduce" entry));
  (cluster, machine)

let test_same_seed_same_digest () =
  let _, a = allreduce_run ~seed:5L ~causal_on:true in
  let _, b = allreduce_run ~seed:5L ~causal_on:true in
  let ga = Machine.causal a and gb = Machine.causal b in
  check_bool "graph nonempty" true (Causal.node_count ga > 0);
  check_int "same node count" (Causal.node_count ga) (Causal.node_count gb);
  check_int "same edge count" (Causal.edge_count ga) (Causal.edge_count gb);
  check_string "same causal digest"
    (Fnv.to_hex (Causal.digest ga))
    (Fnv.to_hex (Causal.digest gb));
  check_bool "digest covers content" false (Fnv.equal (Causal.digest ga) Fnv.empty)

let test_sim_digest_unperturbed_by_causal () =
  let off, _ = allreduce_run ~seed:3L ~causal_on:false in
  let on_, on_machine = allreduce_run ~seed:3L ~causal_on:true in
  let d c = Fnv.to_hex (Trace.digest (Sim.trace (Cnk.Cluster.sim c))) in
  check_string "architectural trace identical with causal on vs off" (d off) (d on_);
  check_bool "and the graph actually recorded" true
    (Causal.node_count (Machine.causal on_machine) > 0)

(* Golden digests of the collectors-on allreduce: the DMA and collective
   path's span and causal streams, pinned as literals so a storage change
   in the collectors must leave them byte-identical. (CNK without noise
   draws no randomness, so the span digest does not depend on the seed;
   causal ids do.) *)
let test_allreduce_golden_digests () =
  List.iter
    (fun (seed, spans, causal) ->
      let _, m = allreduce_run ~seed ~causal_on:true in
      let o = Machine.obs m and g = Machine.causal m in
      check_string "span digest" spans (Fnv.to_hex (Obs.digest o));
      check_string "causal digest" causal (Fnv.to_hex (Causal.digest g));
      check_int "spans" 28 (Obs.span_count o);
      check_int "causal nodes" 35 (Causal.node_count g);
      check_int "causal edges" 52 (Causal.edge_count g))
    [ (5L, "7fd291ecce2b408d", "c318b0dc3dfcf4de"); (7L, "7fd291ecce2b408d", "3715323cf3b3c09e") ]

(* ------------------------------------------------------------------ *)
(* Critical path + attribution *)

let test_critical_path_attribution_exact () =
  let _, machine = allreduce_run ~seed:7L ~causal_on:true in
  let g = Machine.causal machine in
  match Causal.last_matching g ~cat:"coll" ~name:"deliver" with
  | None -> Alcotest.fail "no collective delivery recorded"
  | Some c ->
    let path = Causal.critical_path g c in
    check_bool "path has at least contribute->complete->deliver" true
      (List.length path >= 3);
    (* timestamps never decrease along the path *)
    ignore
      (List.fold_left
         (fun prev (n : Causal.node) ->
           check_bool "monotone timestamps" true (n.Causal.at >= prev);
           n.Causal.at)
         0 path);
    let attr = Causal.attribute_path g (Machine.acct machine) path in
    let ledger_sum = List.fold_left (fun a (_, c) -> a + c) 0 attr.Causal.ledger in
    check_int "network + ledger tiles the path exactly" attr.Causal.total
      (attr.Causal.network + ledger_sum);
    let first = List.hd path and last = List.nth path (List.length path - 1) in
    check_int "total is the path length" (last.Causal.at - first.Causal.at)
      attr.Causal.total;
    check_bool "a straggler rank is named" true (attr.Causal.straggler >= 0)

(* ------------------------------------------------------------------ *)
(* Retransmission: a resent frame carries the SAME context, so the
   at-most-once replay cache yields exactly one Request->Reply edge. *)

let test_retransmit_one_request_reply_edge () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let g = Machine.causal machine in
  Causal.set_enabled g true;
  let ciod = Bg_cio.Ciod.create machine ~config:Bg_cio.Reliable.default_on ~io_node:0 () in
  let replies = ref [] in
  Bg_cio.Ciod.register_node ciod ~rank:0 ~deliver:(fun b -> replies := b :: !replies);
  Bg_cio.Ciod.job_start ciod ~rank:0 ~pids:[ 1 ];
  let sim = machine.Machine.sim in
  let req_ctx =
    Causal.mint g ~cat:"test" ~name:"ship.request" ~rank:0 ~core:0 ~now:(Sim.now sim) ()
  in
  let frame =
    Bg_cio.Frame.encode
      {
        Bg_cio.Frame.kind = Bg_cio.Frame.Request;
        rank = 0;
        pid = 1;
        tid = 1;
        seq = 0;
        ctx = req_ctx;
        payload =
          Bg_cio.Proto.encode_request
            { Bg_cio.Proto.rank = 0; pid = 1; tid = 1 }
            (Sysreq.Open { path = "f"; flags = Sysreq.o_create_trunc; mode = 0o644 });
      }
  in
  Bg_cio.Ciod.submit ciod frame;
  ignore (Sim.run sim);
  (* the timeout path resends the encoded frame verbatim *)
  Bg_cio.Ciod.submit ciod (Bytes.copy frame);
  ignore (Sim.run sim);
  check_int "request executed once" 1 (Bg_cio.Ciod.requests_served ciod);
  check_int "duplicate hit the replay cache" 1 (Bg_cio.Ciod.retransmits_seen ciod);
  let rr_edges =
    List.filter (fun e -> e.Causal.kind = Causal.Request_reply) (Causal.edges g)
  in
  check_int "exactly one Request->Reply edge" 1 (List.length rr_edges);
  check_int "edge rooted at the shipped context" req_ctx
    (List.hd rr_edges).Causal.src;
  (* the reply frame carries the CIOD service node as its context *)
  (match !replies with
  | [] -> Alcotest.fail "no reply delivered"
  | b :: _ -> (
    match Bg_cio.Frame.decode b with
    | Ok f ->
      check_int "reply ctx is the service node" (List.hd rr_edges).Causal.dst
        f.Bg_cio.Frame.ctx
    | Error e -> Alcotest.fail (Bg_cio.Frame.error_message e)))

(* ------------------------------------------------------------------ *)
(* Flow-event export *)

let test_flow_event_golden () =
  let g = Causal.create ~seed:9 ~enabled:true () in
  let o = Obs.create () in
  let src = Causal.mint g ~chain:false ~cat:"msg" ~name:"send" ~rank:0 ~core:0 ~now:850 () in
  let dst = Causal.mint g ~chain:false ~cat:"msg" ~name:"recv" ~rank:1 ~core:2 ~now:1700 () in
  Causal.link g Causal.Send_recv ~src ~dst;
  let json = Export.chrome_trace ~causal:g o in
  (match Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flow JSON invalid: %s" e);
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
    at 0
  in
  let s_event =
    "{\"name\":\"send->recv\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":\"0x0\",\"ts\":1.000,\"pid\":0,\"tid\":0}"
  in
  let f_event =
    "{\"name\":\"send->recv\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x0\",\"ts\":2.000,\"pid\":1,\"tid\":2}"
  in
  check_bool "s event verbatim" true (contains s_event);
  check_bool "f event verbatim" true (contains f_event);
  (* both endpoint ranks got process-name metadata rows *)
  check_bool "src rank labelled" true (contains "\"pid\":0,\"args\":{\"name\":");
  check_bool "dst rank labelled" true (contains "\"pid\":1,\"args\":{\"name\":")

let test_validator_rejects_raw_control_chars () =
  (match Export.validate_json "{\"name\":\"a\tb\"}" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "raw tab inside a string must be rejected");
  (match Export.validate_json "{\"name\":\"a\001b\"}" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "raw 0x01 inside a string must be rejected");
  (* json_escape makes the same content legal *)
  match Export.validate_json ("{\"name\":\"" ^ Export.json_escape "a\t\001b\"" ^ "\"}") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "escaped control chars must validate: %s" e

let test_flow_fields_escaped () =
  (* A hostile instrumentation name must not break the emitted JSON. *)
  let g = Causal.create ~enabled:true () in
  let o = Obs.create () in
  let src =
    Causal.mint g ~chain:false ~cat:"msg" ~name:"evil\"\n\001name" ~rank:0 ~core:0
      ~now:100 ()
  in
  let dst = Causal.mint g ~chain:false ~cat:"msg" ~name:"ok" ~rank:0 ~core:0 ~now:200 () in
  Causal.link g Causal.Send_recv ~src ~dst;
  match Export.validate_json (Export.chrome_trace ~causal:g o) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hostile names must still yield valid JSON: %s" e

(* ------------------------------------------------------------------ *)
(* Span-ring overflow: first-class drop counter per (rank, core) *)

let test_ring_overflow_drop_counter () =
  let o = Obs.create ~ring_capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Obs.span_record o ~cat:"t" ~name:"s" ~rank:2 ~core:1 ~start:(i * 10)
      ~finish:((i * 10) + 5)
  done;
  check_int "six spans evicted" 6 (Obs.dropped_spans o);
  check_int "per-scope drop counter" 6
    (Obs.counter_value o ~rank:2 ~core:1 ~subsystem:"obs" ~name:"dropped_spans" ());
  check_int "other scopes unaffected" 0
    (Obs.counter_value o ~rank:0 ~core:0 ~subsystem:"obs" ~name:"dropped_spans" ())

(* ------------------------------------------------------------------ *)
(* A traced user-space DMA run names each completion counter's node at
   run time ("counter<id>.zero", and DCMF never reuses an id). Those
   names stay in the machine's own graph, one per id, and leave the
   process-wide label registry as it was however long the run; a reset
   frees them. *)

let test_dma_counter_names_bounded () =
  let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) () in
  let machine = Cnk.Cluster.machine cluster in
  let g = Machine.causal machine in
  Causal.set_enabled g true;
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric ~path:Bg_msg.Dcmf.Dma_user machine in
  for r = 0 to nodes - 1 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let before = Fnv.Label.count () in
  let halo iterations =
    let entry, _ =
      Bg_apps.Halo.program ~fabric ~cells_per_rank:12 ~iterations ~compute_cycles_per_cell:50 ()
    in
    Cnk.Cluster.run_job cluster (Job.create ~name:"halo" (Image.executable ~name:"halo" entry))
  in
  halo 10;
  let counter_names () =
    List.sort_uniq compare
      (List.filter_map
         (fun (n : Causal.node) ->
           if n.Causal.cat = "dma" && String.starts_with ~prefix:"counter" n.name then Some n.name
           else None)
         (Causal.nodes g))
  in
  let first = List.length (counter_names ()) in
  check_bool "counter nodes recorded" true (first > 0);
  check_int "one run-time name per counter id" first (Causal.local_names g);
  halo 40;
  check_bool "a longer run names more counters" true (List.length (counter_names ()) > first);
  check_int "still one per counter id" (List.length (counter_names ())) (Causal.local_names g);
  check_int "label registry unchanged" before (Fnv.Label.count ());
  Causal.reset g;
  check_int "reset frees them" 0 (Causal.local_names g)

let suite =
  [
    Alcotest.test_case "same seed, same causal digest" `Quick test_same_seed_same_digest;
    Alcotest.test_case "sim digest unperturbed by causal" `Quick
      test_sim_digest_unperturbed_by_causal;
    Alcotest.test_case "allreduce span and causal digests: goldens" `Quick
      test_allreduce_golden_digests;
    Alcotest.test_case "critical path: attribution tiles exactly" `Quick
      test_critical_path_attribution_exact;
    Alcotest.test_case "retransmit reuses ctx: one Request->Reply edge" `Quick
      test_retransmit_one_request_reply_edge;
    Alcotest.test_case "flow events: golden JSON" `Quick test_flow_event_golden;
    Alcotest.test_case "validator rejects raw control chars" `Quick
      test_validator_rejects_raw_control_chars;
    Alcotest.test_case "flow fields escaped against hostile names" `Quick
      test_flow_fields_escaped;
    Alcotest.test_case "span-ring overflow drop counter" `Quick
      test_ring_overflow_drop_counter;
    Alcotest.test_case "DMA counter names stay in the graph" `Quick
      test_dma_counter_names_bounded;
  ]
