(* Tests for the torus DMA engine and the messaging paths built on it
   (paper §V.C): byte-decrement completion counters, injection-FIFO
   stall-on-full backpressure, the eager/rendezvous crossover, the
   CNK-beats-FWK latency ordering, run-to-run determinism of the DMA
   path, and the broken-link-under-traffic RAS event consumed by the
   resilience layer. *)

open Bg_engine
open Bg_kabi
module Dma = Bg_hw.Dma
module Torus = Bg_hw.Torus
module Mb = Bg_msgbench.Msgbench
module Ctl = Bg_control
module Res = Bg_resilience

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let inject_ok engine d =
  match Dma.inject engine d with
  | Ok () -> ()
  | Error `Fifo_full -> Alcotest.fail "unexpected Fifo_full"

(* ------------------------------------------------------------------ *)
(* Completion counters: armed at inject, decremented to zero by the
   last byte, completion cycle latched. *)

let test_counter_put () =
  let m = Machine.create ~dims:(2, 1, 1) () in
  let e0 = Machine.dma m 0 and e1 = Machine.dma m 1 in
  let landed = ref None in
  Dma.set_write_hook e1 (fun ~tag ~data ->
      if tag = 9 then landed := Some (Bytes.to_string data));
  inject_ok e0
    (Dma.descriptor ~kind:Dma.Rdma_put ~dst:1 ~tag:9
       ~payload:(Bytes.make 64 'p') ~bytes:64 ~counter:0 ());
  check_int "counter armed with the transfer size" 64 (Dma.counter_value e0 ~id:0);
  check_bool "not complete before the sim runs" true
    (Dma.counter_done_at e0 ~id:0 = None);
  ignore (Sim.run (Machine.sim m));
  check_int "counter decremented to zero" 0 (Dma.counter_value e0 ~id:0);
  check_bool "completion cycle latched" true (Dma.counter_done_at e0 ~id:0 <> None);
  Alcotest.(check (option string)) "payload landed via the write hook"
    (Some (String.make 64 'p')) !landed;
  check_int "target delivered one transfer" 1 (Dma.stats e1).Dma.delivered

let test_counter_get () =
  let m = Machine.create ~dims:(2, 1, 1) () in
  let e0 = Machine.dma m 0 and e1 = Machine.dma m 1 in
  Dma.set_read_hook e1 (fun ~tag ->
      if tag = 4 then Bytes.make 128 'g' else Bytes.empty);
  let got = ref None in
  Dma.set_write_hook e0 (fun ~tag ~data ->
      if tag = 4 then got := Some (Bytes.to_string data));
  inject_ok e0 (Dma.descriptor ~kind:Dma.Rdma_get ~dst:1 ~tag:4 ~bytes:128 ~counter:2 ());
  check_int "counter armed with the bytes to pull" 128 (Dma.counter_value e0 ~id:2);
  ignore (Sim.run (Machine.sim m));
  check_int "counter decremented to zero" 0 (Dma.counter_value e0 ~id:2);
  check_bool "completion cycle latched" true (Dma.counter_done_at e0 ~id:2 <> None);
  Alcotest.(check (option string)) "remote buffer streamed back"
    (Some (String.make 128 'g')) !got

(* ------------------------------------------------------------------ *)
(* Injection FIFO backpressure: a full FIFO refuses the descriptor and
   counts a stall; a launched descriptor frees the slot. *)

let test_fifo_stall_on_full () =
  let m = Machine.create ~dma_fifo_depth:2 ~dims:(2, 1, 1) () in
  let e0 = Machine.dma m 0 in
  let desc tag =
    Dma.descriptor ~kind:Dma.Eager ~dst:1 ~tag ~payload:(Bytes.make 8 'e') ~bytes:8 ()
  in
  inject_ok e0 (desc 0);
  inject_ok e0 (desc 1);
  check_int "FIFO at depth" 2 (Dma.injection_occupancy e0);
  (match Dma.inject e0 (desc 2) with
  | Error `Fifo_full -> ()
  | Ok () -> Alcotest.fail "third inject should stall on a depth-2 FIFO");
  check_int "stall counted" 1 (Dma.stats e0).Dma.inject_stalls;
  check_int "stalled descriptor not queued" 2 (Dma.injection_occupancy e0);
  ignore (Sim.run (Machine.sim m));
  (* the engine drained the FIFO; the retried injection now lands *)
  inject_ok e0 (desc 2);
  ignore (Sim.run (Machine.sim m));
  check_int "all three delivered after the retry" 3
    (Dma.stats (Machine.dma m 1)).Dma.delivered

(* ------------------------------------------------------------------ *)
(* Table I structure over the real descriptor path. *)

let test_eager_rendezvous_crossover () =
  let r = Mb.run_cnk ~sizes:[ 32; 16384 ] ~reps:1 () in
  let lat layer bytes = Option.get (Mb.find_latency r ~layer ~bytes) in
  check_bool "eager wins small messages" true
    (lat "dcmf_eager" 32 < lat "dcmf_rndv" 32);
  check_bool "rendezvous wins large messages" true
    (lat "dcmf_rndv" 16384 < lat "dcmf_eager" 16384);
  Alcotest.(check (option int)) "crossover at the large size" (Some 16384)
    (Mb.crossover r)

let test_cnk_beats_fwk () =
  let sizes = [ 1024 ] and reps = 2 in
  let cnk = Mb.run_cnk ~sizes ~reps () in
  let fwk = Mb.run_fwk ~sizes ~reps ~tick:false () in
  List.iter
    (fun layer ->
      let c = Option.get (Mb.find_latency cnk ~layer ~bytes:1024) in
      let f = Option.get (Mb.find_latency fwk ~layer ~bytes:1024) in
      check_bool
        (Printf.sprintf "%s: user-space DMA under kernel-mediated (%d < %d)" layer c f)
        true (c < f))
    Mb.layers

let test_dma_path_determinism () =
  let run () =
    let sizes = [ 32; 1024 ] and reps = 2 in
    Mb.digest [ Mb.run_cnk ~sizes ~reps (); Mb.run_fwk ~sizes ~reps ~tick:true () ]
  in
  Alcotest.(check string) "two same-seed runs digest identically" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* A link severed under an active DMA transfer is a RAS event. *)

let test_link_down_under_dma_raises_ras () =
  let m = Machine.create ~dims:(4, 1, 1) () in
  let events = ref [] in
  Machine.on_ras m (fun ~rank ev -> events := (rank, ev) :: !events);
  inject_ok (Machine.dma m 0)
    (Dma.descriptor ~kind:Dma.Rdma_put ~dst:1 ~tag:1
       ~payload:(Bytes.make 65536 'x') ~bytes:65536 ~counter:0 ());
  let sim = Machine.sim m in
  let t0 = Sim.now sim in
  (* sever the +x link the 0->1 put crosses while its payload serializes *)
  ignore
    (Sim.schedule_at sim (t0 + 2_000) (fun () ->
         check_bool "transfer in flight on the severed link" true
           (Torus.link_in_flight m.Machine.torus ~rank:0 ~dir:0 > 0);
         Torus.set_link_broken m.Machine.torus ~rank:0 ~dir:0 true));
  ignore (Sim.run ~until:(t0 + 1_000_000) sim);
  match !events with
  | [ (0, Machine.Fault (Link_failure { rank = 0; dir = 0 } as f)) ] ->
    check_bool "error severity" true (Machine.fault_severity f = Bg_obs.Rasdb.Error)
  | [ _ ] -> Alcotest.fail "the RAS event is not Link_failure { rank = 0; dir = 0 } on rank 0"
  | [] -> Alcotest.fail "no RAS event for a link severed under traffic"
  | _ -> Alcotest.fail "expected exactly one RAS event"

let test_link_failure_reaches_recovery () =
  let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let sched = Ctl.Scheduler.create cluster in
  let recov = Res.Recovery.attach sched in
  let m = Cnk.Cluster.machine cluster in
  inject_ok (Machine.dma m 0)
    (Dma.descriptor ~kind:Dma.Rdma_put ~dst:1 ~tag:1
       ~payload:(Bytes.make 65536 'x') ~bytes:65536 ~counter:0 ());
  let sim = Cnk.Cluster.sim cluster in
  let t0 = Sim.now sim in
  ignore
    (Sim.schedule_at sim (t0 + 2_000) (fun () ->
         Torus.set_link_broken m.Machine.torus ~rank:0 ~dir:0 true));
  ignore (Sim.run ~until:(t0 + 1_000_000) sim);
  check_int "recovery consumed the link event" 1 (Res.Recovery.link_events_seen recov)

(* Counter ids are any non-negative int: a sparse id shares the tables
   with dense ones (and, under an identity hash, a bucket with id 0), is
   armed by [set_counter] or [inject] and decremented by delivery, and
   [capture] lists every id in sorted order. *)
let test_counter_sparse_id () =
  let sim = Sim.create () in
  let torus = Torus.create sim ~dims:(2, 1, 1) () in
  let e = (Dma.create_group sim torus ()).(0) in
  let sparse = 1 lsl 40 in
  List.iter (fun id -> Dma.set_counter e ~id 100) [ sparse; 0; 7 ];
  inject_ok e (Dma.descriptor ~kind:Dma.Rdma_put ~dst:1 ~tag:1 ~bytes:64 ~counter:sparse ());
  inject_ok e (Dma.descriptor ~kind:Dma.Rdma_put ~dst:1 ~tag:2 ~bytes:32 ~counter:3 ());
  check_int "sparse armed on top of set_counter" 164 (Dma.counter_value e ~id:sparse);
  check_bool "sparse not done" true (Dma.counter_done_at e ~id:sparse = None);
  ignore (Sim.run sim);
  check_int "sparse drained by delivery" 100 (Dma.counter_value e ~id:sparse);
  check_bool "dense id 3 done" true (Dma.counter_done_at e ~id:3 <> None);
  Dma.set_counter e ~id:sparse 0;
  check_bool "sparse done at zero" true (Dma.counter_done_at e ~id:sparse = Some (Sim.now sim));
  check_int "id 0 untouched" 100 (Dma.counter_value e ~id:0);
  check_int "id 7 untouched" 100 (Dma.counter_value e ~id:7);
  let b = Buffer.create 256 in
  Dma.capture e b;
  let s = Buffer.contents b in
  (* skip rank, depths, pumping flag, seven stats and the two empty FIFOs *)
  let pos = ref ((3 * 8) + 1 + (7 * 8) + 8 + 8) in
  let next () =
    let v = Int64.to_int (String.get_int64_le s !pos) in
    pos := !pos + 8;
    v
  in
  let rows () = List.init (next ()) (fun _ -> let id = next () in ignore (next ()); id) in
  let counters = rows () in
  let done_at = rows () in
  Alcotest.(check (list int)) "capture lists every counter, sorted" [ 0; 3; 7; sparse ] counters;
  Alcotest.(check (list int)) "capture lists every completion, sorted" [ 3; sparse ] done_at;
  check_int "capture fully read" (String.length s) !pos

(* Counters count bytes: a negative value or id is refused, by name. *)
let test_counter_rejects_negative () =
  let sim = Sim.create () in
  let e = (Dma.create_group sim (Torus.create sim ~dims:(2, 1, 1) ()) ()).(0) in
  Alcotest.check_raises "value" (Invalid_argument "Dma.set_counter: negative value -5")
    (fun () -> Dma.set_counter e ~id:3 (-5));
  Alcotest.check_raises "id" (Invalid_argument "Dma.set_counter: negative id -1") (fun () ->
      Dma.set_counter e ~id:(-1) 5);
  check_int "nothing armed" 0 (Dma.counter_value e ~id:3);
  check_bool "nothing done" true (Dma.counter_done_at e ~id:3 = None)

(* Model test: the open-addressing counter table against the engine it
   replaced ([Dma_reference], hash tables), on twin simulators of a
   2x2x1 torus. Random set_counter, inject (every kind, with and without
   a counter, armed or not), clock advances and reception drains, over
   dense ids, ids that collide under a small mask and ids up to 2^40,
   with FIFOs deep enough or two deep. After every operation both must
   agree on its outcome, on every hook call so far, on every counter's
   value and completion cycle, on the packets drained and on each
   engine's capture bytes. *)

type dma_op =
  | D_set of { rank : int; id : int; v : int }
  | D_inject of {
      rank : int;
      kind : int;
      dst : int;
      bytes : int;
      counter : int;
      arm : int option;
    }
  | D_advance of int
  | D_drain of int

let pp_dma_op = function
  | D_set { rank; id; v } -> Printf.sprintf "set %d/%d=%d" rank id v
  | D_inject { rank; kind; dst; bytes; counter; arm } ->
    Printf.sprintf "inject %d->%d k%d %dB c%d%s" rank dst kind bytes counter
      (match arm with Some a -> Printf.sprintf " arm%d" a | None -> "")
  | D_advance d -> Printf.sprintf "advance %d" d
  | D_drain r -> Printf.sprintf "drain %d" r

let gen_dma_case =
  let open QCheck.Gen in
  let id =
    frequency
      [
        (6, 0 -- 20);
        (2, map (fun k -> k * 16) (1 -- 8));
        (1, oneofl [ 1 lsl 40; (1 lsl 40) + 16; (1 lsl 40) - 1; 1 lsl 33 ]);
        (1, 0 -- (1 lsl 40));
      ]
  in
  let rank = 0 -- 3 in
  let set = map3 (fun rank id v -> D_set { rank; id; v }) rank id (frequency [ (3, 0 -- 300); (1, return 0) ]) in
  let inject =
    let* rank = rank and* kind = 0 -- 2 and* dst = rank and* bytes = 0 -- 200 in
    let* counter = frequency [ (5, id); (1, return (-1)) ] in
    let+ arm = frequency [ (4, return None); (1, map Option.some (0 -- 300)); (1, return (Some 0)) ] in
    D_inject { rank; kind; dst; bytes; counter; arm }
  in
  let advance = map (fun d -> D_advance d) (frequency [ (3, 0 -- 100); (2, 100 -- 3000) ]) in
  let drain = map (fun r -> D_drain r) rank in
  let* depth = oneofl [ 2; 256 ] in
  let+ ops = list_size (20 -- 60) (frequency [ (3, set); (6, inject); (3, advance); (1, drain) ]) in
  (depth, ops)

let prop_dma_matches_hashtable_reference =
  let module R = Dma_reference in
  QCheck.Test.make ~name:"dma: counter table matches the hash-table reference" ~count:200
    (QCheck.make
       ~print:(fun (depth, ops) ->
         Printf.sprintf "depth %d: %s" depth (String.concat "; " (List.map pp_dma_op ops)))
       gen_dma_case)
    (fun (depth, ops) ->
      let sim = Sim.create () and ref_sim = Sim.create () in
      let dims = (2, 2, 1) in
      let es =
        Dma.create_group sim (Torus.create sim ~dims ()) ~injection_depth:depth
          ~reception_depth:depth ()
      and rs =
        R.create_group ref_sim (Torus.create ref_sim ~dims ()) ~injection_depth:depth
          ~reception_depth:depth ()
      in
      let log = ref [] and ref_log = ref [] in
      Array.iteri
        (fun rank e ->
          Dma.set_counter_done_hook e (fun ~id ~ctx ->
              log := `Done (rank, id, ctx, Sim.now sim) :: !log);
          Dma.set_inject_hook e (fun ~bytes -> log := `Inject (rank, bytes) :: !log);
          Dma.set_deliver_hook e (fun ~bytes -> log := `Deliver (rank, bytes) :: !log))
        es;
      Array.iteri
        (fun rank r ->
          R.set_counter_done_hook r (fun ~id ~ctx ->
              ref_log := `Done (rank, id, ctx, Sim.now ref_sim) :: !ref_log);
          R.set_inject_hook r (fun ~bytes -> ref_log := `Inject (rank, bytes) :: !ref_log);
          R.set_deliver_hook r (fun ~bytes -> ref_log := `Deliver (rank, bytes) :: !ref_log))
        rs;
      let ids = ref [ 0; 1; 5; 1 lsl 40 ] in
      let capture f x =
        let b = Buffer.create 256 in
        f x b;
        Buffer.contents b
      in
      let agree what a b = if a <> b then QCheck.Test.fail_reportf "%s differs" what in
      let check () =
        agree "hook log" !log !ref_log;
        agree "clock" (Sim.now sim) (Sim.now ref_sim);
        Array.iteri
          (fun rank e ->
            let r = rs.(rank) in
            List.iter
              (fun id ->
                agree (Printf.sprintf "counter_value %d/%d" rank id) (Dma.counter_value e ~id)
                  (R.counter_value r ~id);
                agree (Printf.sprintf "counter_done_at %d/%d" rank id) (Dma.counter_done_at e ~id)
                  (R.counter_done_at r ~id))
              !ids;
            agree (Printf.sprintf "occupancy %d" rank)
              (Dma.injection_occupancy e, Dma.reception_occupancy e)
              (R.injection_occupancy r, R.reception_occupancy r);
            agree (Printf.sprintf "capture %d" rank) (capture Dma.capture e) (capture R.capture r))
          es
      in
      List.iteri
        (fun i op ->
          (match op with
          | D_set { rank; id; v } ->
            ids := id :: !ids;
            Dma.set_counter es.(rank) ~id v;
            R.set_counter rs.(rank) ~id v
          | D_inject { rank; kind; dst; bytes; counter; arm } ->
            if counter >= 0 then ids := counter :: !ids;
            let payload = if kind = 2 then Bytes.empty else Bytes.make bytes (Char.chr (i land 255)) in
            let d =
              Dma.descriptor ~payload ~counter ?arm_bytes:arm ~ctx:(i + 1)
                ~kind:(match kind with 0 -> Dma.Eager | 1 -> Dma.Rdma_put | _ -> Dma.Rdma_get)
                ~dst ~tag:i ~bytes ()
            and rd =
              R.descriptor ~payload ~counter ?arm_bytes:arm ~ctx:(i + 1)
                ~kind:(match kind with 0 -> R.Eager | 1 -> R.Rdma_put | _ -> R.Rdma_get)
                ~dst ~tag:i ~bytes ()
            in
            agree "inject outcome"
              (Result.is_ok (Dma.inject es.(rank) d))
              (Result.is_ok (R.inject rs.(rank) rd))
          | D_advance d ->
            ignore (Sim.run ~until:(Sim.now sim + d) sim);
            ignore (Sim.run ~until:(Sim.now ref_sim + d) ref_sim)
          | D_drain rank ->
            agree "drained packets"
              (List.map
                 (fun (p : Dma.packet) -> (p.pkt_src, p.pkt_tag, p.pkt_payload, p.pkt_ctx))
                 (Dma.drain_recv es.(rank)))
              (List.map
                 (fun (p : R.packet) -> (p.pkt_src, p.pkt_tag, p.pkt_payload, p.pkt_ctx))
                 (R.drain_recv rs.(rank))));
          check ())
        ops;
      (* A full reception FIFO retries its packet until drained, so the
         run ends with bounded advances, each after a drain. *)
      for _ = 1 to 4 do
        Array.iter (fun e -> ignore (Dma.drain_recv e)) es;
        Array.iter (fun r -> ignore (R.drain_recv r)) rs;
        ignore (Sim.run ~until:(Sim.now sim + 20_000) sim);
        ignore (Sim.run ~until:(Sim.now ref_sim + 20_000) ref_sim);
        check ()
      done;
      true)

let suite =
  [
    Alcotest.test_case "counter: sparse id beside dense ids" `Quick test_counter_sparse_id;
    Alcotest.test_case "counter: put decrements to zero" `Quick test_counter_put;
    Alcotest.test_case "counter: get decrements to zero" `Quick test_counter_get;
    Alcotest.test_case "injection FIFO stalls on full" `Quick test_fifo_stall_on_full;
    Alcotest.test_case "eager/rendezvous crossover" `Quick test_eager_rendezvous_crossover;
    Alcotest.test_case "CNK beats FWK at every layer" `Quick test_cnk_beats_fwk;
    Alcotest.test_case "DMA path is deterministic" `Quick test_dma_path_determinism;
    Alcotest.test_case "link down under DMA raises RAS" `Quick
      test_link_down_under_dma_raises_ras;
    Alcotest.test_case "link failure reaches Recovery" `Quick
      test_link_failure_reaches_recovery;
    Alcotest.test_case "counter: negative value or id refused" `Quick
      test_counter_rejects_negative;
    QCheck_alcotest.to_alcotest prop_dma_matches_hashtable_reference;
  ]
