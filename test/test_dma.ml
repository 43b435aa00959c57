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
  ]
