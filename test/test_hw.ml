(* Tests for Bg_hw: memory, TLB, DAC, cache banks, DRAM self-refresh, chip
   reset, torus routing/timing, collective network, barrier network,
   clock stop. *)

open Bg_engine
open Bg_hw

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_rw_roundtrip () =
  let m = Memory.create ~size:(1 lsl 20) in
  let data = Bytes.of_string "hello, blue gene" in
  Memory.write m ~addr:12345 data;
  Alcotest.(check string) "roundtrip" "hello, blue gene"
    (Bytes.to_string (Memory.read m ~addr:12345 ~len:(Bytes.length data)))

let test_memory_cross_chunk () =
  let m = Memory.create ~size:(1 lsl 20) in
  (* Straddle the 64 KiB chunk boundary. *)
  let data = Bytes.make 1000 'x' in
  Memory.write m ~addr:((1 lsl 16) - 500) data;
  let back = Memory.read m ~addr:((1 lsl 16) - 500) ~len:1000 in
  Alcotest.(check bytes) "straddles chunks" data back

let test_memory_untouched_is_zero () =
  let m = Memory.create ~size:4096 in
  check_int "zero" 0 (Memory.read_byte m ~addr:100)

let test_memory_bounds () =
  let m = Memory.create ~size:4096 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Memory: access [0x1000, +1) outside of 4096 bytes")
    (fun () -> ignore (Memory.read_byte m ~addr:4096))

let test_memory_int64 () =
  let m = Memory.create ~size:4096 in
  Memory.write_int64 m ~addr:8 0x1122334455667788L;
  Alcotest.(check int64) "int64 roundtrip" 0x1122334455667788L
    (Memory.read_int64 m ~addr:8)

let test_memory_copy () =
  let a = Memory.create ~size:4096 and b = Memory.create ~size:4096 in
  Memory.write a ~addr:0 (Bytes.of_string "dma-payload");
  Memory.copy ~src:a ~src_addr:0 ~dst:b ~dst_addr:100 ~len:11;
  Alcotest.(check string) "copied" "dma-payload"
    (Bytes.to_string (Memory.read b ~addr:100 ~len:11))

let test_memory_digest_tracks_writes () =
  let m = Memory.create ~size:4096 in
  let d0 = Memory.digest m in
  ignore (Memory.read m ~addr:0 ~len:100);
  Alcotest.(check bool) "reads don't change digest" true
    (Fnv.equal d0 (Memory.digest m));
  Memory.write_byte m ~addr:0 7;
  Alcotest.(check bool) "writes change digest" false
    (Fnv.equal d0 (Memory.digest m))

let prop_memory_roundtrip =
  QCheck.Test.make ~name:"memory write-then-read returns the data" ~count:100
    QCheck.(pair (int_bound 60_000) (string_of_size Gen.(1 -- 2000)))
    (fun (addr, s) ->
      let m = Memory.create ~size:(1 lsl 17) in
      Memory.write m ~addr (Bytes.of_string s);
      Bytes.to_string (Memory.read m ~addr ~len:(String.length s)) = s)

(* ------------------------------------------------------------------ *)
(* Tlb *)

let entry vaddr paddr size perm = { Tlb.vaddr; paddr; size; perm }

let test_tlb_hit_translation () =
  let tlb = Tlb.create ~capacity:4 in
  (match Tlb.install tlb (entry 0 (16 * 1024 * 1024) Page_size.P1m Tlb.perm_rwx) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Tlb.translate tlb Tlb.Load 4096 with
  | Tlb.Hit pa -> check_int "offset preserved" ((16 * 1024 * 1024) + 4096) pa
  | _ -> Alcotest.fail "expected hit"

let test_tlb_miss () =
  let tlb = Tlb.create ~capacity:4 in
  (match Tlb.translate tlb Tlb.Load 4096 with
  | Tlb.Miss -> ()
  | _ -> Alcotest.fail "expected miss");
  check_int "miss counted" 1 (Tlb.misses tlb)

let test_tlb_perm_fault () =
  let tlb = Tlb.create ~capacity:4 in
  (match Tlb.install tlb (entry 0 0 Page_size.P1m Tlb.perm_ro) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Tlb.translate tlb Tlb.Store 10 with
  | Tlb.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_tlb_alignment_rejected () =
  let tlb = Tlb.create ~capacity:4 in
  match Tlb.install tlb (entry 4096 0 Page_size.P1m Tlb.perm_rwx) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "misaligned entry accepted"

let test_tlb_overlap_rejected () =
  let tlb = Tlb.create ~capacity:4 in
  (match Tlb.install tlb (entry 0 0 Page_size.P16m Tlb.perm_rwx) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Tlb.install tlb (entry (1024 * 1024) (1 lsl 30) Page_size.P1m Tlb.perm_rwx) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlap accepted"

let test_tlb_fifo_eviction () =
  let tlb = Tlb.create ~capacity:2 in
  let mb = 1024 * 1024 in
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Tlb.install tlb (entry 0 0 Page_size.P1m Tlb.perm_rwx));
  ok (Tlb.install tlb (entry mb mb Page_size.P1m Tlb.perm_rwx));
  ok (Tlb.install tlb (entry (2 * mb) (2 * mb) Page_size.P1m Tlb.perm_rwx));
  check_int "evictions" 1 (Tlb.evictions tlb);
  (* Oldest (vaddr 0) was evicted. *)
  (match Tlb.translate tlb Tlb.Load 0 with
  | Tlb.Miss -> ()
  | _ -> Alcotest.fail "expected miss after eviction");
  match Tlb.translate tlb Tlb.Load (2 * mb) with
  | Tlb.Hit _ -> ()
  | _ -> Alcotest.fail "newest must be present"

let test_tlb_fifo_evicts_exactly_oldest () =
  let tlb = Tlb.create ~capacity:3 in
  let mb = 1024 * 1024 in
  let e i = entry (i * mb) (i * mb) Page_size.P1m Tlb.perm_rwx in
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  let resident () = List.map (fun (x : Tlb.entry) -> x.Tlb.vaddr / mb) (Tlb.entries tlb) in
  List.iter (fun i -> ok (Tlb.install tlb (e i))) [ 0; 1; 2 ];
  check_int "filling evicts nothing" 0 (Tlb.evictions tlb);
  ok (Tlb.install tlb (e 3));
  check_int "one eviction" 1 (Tlb.evictions tlb);
  Alcotest.(check (list int)) "only the oldest went" [ 3; 2; 1 ] (resident ());
  ok (Tlb.install tlb (e 4));
  check_int "two evictions" 2 (Tlb.evictions tlb);
  Alcotest.(check (list int)) "then the next oldest" [ 4; 3; 2 ] (resident ())

(* What [Tlb.load] must reproduce: a flush, then one [install] per entry
   in order, stopping at the first error. *)
let install_sequentially tlb entries =
  Tlb.flush tlb;
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> ( match Tlb.install tlb e with Ok () -> go rest | Error _ as err -> err)
  in
  go entries

(* Load one prepared map onto two TLBs and install it sequentially on a
   third, every TLB holding [preload] first. When the sequential loop
   stays within capacity, all observable state must agree; when it would
   evict, [load] must fail and leave the TLB as it was. *)
let load_matches_sequential ~capacity ~preload entries =
  let make () =
    let tlb = Tlb.create ~capacity in
    let refills = ref 0 in
    Tlb.set_refill_hook tlb (fun n -> refills := !refills + n);
    List.iter (fun e -> ignore (Tlb.install tlb e)) preload;
    refills := 0;
    (tlb, refills)
  in
  let untouched, _ = make () in
  let reference, ref_refills = make () in
  let expected = install_sequentially reference entries in
  let fits = Tlb.evictions reference = Tlb.evictions untouched in
  let map = Tlb.prepare entries in
  List.for_all
    (fun _ ->
      let tlb, refills = make () in
      let got = Tlb.load tlb map in
      if fits then
        got = expected
        && Tlb.entries tlb = Tlb.entries reference
        && Tlb.evictions tlb = Tlb.evictions reference
        && !refills = !ref_refills
      else
        Result.is_error got
        && Tlb.entries tlb = Tlb.entries untouched
        && Tlb.evictions tlb = Tlb.evictions untouched
        && !refills = 0)
    [ 1; 2 ]

let test_tlb_load_matches_sequential () =
  let mb = 1024 * 1024 in
  let map = List.init 34 (fun i -> entry (i * 16 * mb) (i * 16 * mb) Page_size.P16m Tlb.perm_rwx) in
  (* a static map as CNK builds it, loaded onto a chip's cores: the UPC
     refill counters must read as if every entry had been installed *)
  let chip_a = Chip.create ~id:0 () and chip_b = Chip.create ~id:0 () in
  Upc.start (Chip.upc chip_a);
  Upc.start (Chip.upc chip_b);
  let prepared = Tlb.prepare map in
  for core = 0 to 3 do
    (match Tlb.load (Chip.core chip_a core).Chip.tlb prepared with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    match install_sequentially (Chip.core chip_b core).Chip.tlb map with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  for core = 0 to 3 do
    check_int "refills per core" 34 (Upc.read (Chip.upc chip_a) ~core Upc.Tlb_refill);
    Alcotest.(check bool)
      "same entries" true
      (Tlb.entries (Chip.core chip_a core).Chip.tlb
      = Tlb.entries (Chip.core chip_b core).Chip.tlb)
  done;
  Alcotest.(check bool)
    "same UPC state" true
    (Fnv.equal (Upc.digest (Chip.upc chip_a)) (Upc.digest (Chip.upc chip_b)));
  let check name ~capacity ?(preload = []) entries =
    Alcotest.(check bool) name true (load_matches_sequential ~capacity ~preload entries)
  in
  check "clean map" ~capacity:64 map;
  check "overlap in the middle" ~capacity:64
    (List.filteri (fun i _ -> i < 5) map @ [ entry mb (1 lsl 30) Page_size.P1m Tlb.perm_rwx ]
    @ List.filteri (fun i _ -> i >= 5) map);
  check "misaligned vaddr" ~capacity:64 [ List.hd map; entry 4096 0 Page_size.P1m Tlb.perm_rwx ];
  check "misaligned paddr" ~capacity:64 [ entry 0 4096 Page_size.P1m Tlb.perm_rwx ];
  check "loading replaces what was there" ~capacity:64 ~preload:[ List.nth map 3 ] map;
  check "more entries than capacity" ~capacity:8 map;
  match Tlb.load (Tlb.create ~capacity:8) (Tlb.prepare map) with
  | Ok () -> Alcotest.fail "an over-capacity static map loaded"
  | Error msg ->
    Alcotest.(check string)
      "capacity error" "static map of 34 entries exceeds TLB capacity 8" msg

(* Allocation guards on CNK's static-TLB path, through a chip's UPC
   hooks with counting on: a translation miss (which fires the miss
   hook) and a warm reload of a prepared map (one refill-hook call for
   the whole map) allocate nothing. *)
let tlb_words_per_call n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_tlb_hooks_allocate_nothing () =
  let mb = 1024 * 1024 in
  let chip = Chip.create ~id:0 () in
  Upc.start (Chip.upc chip);
  let tlb = (Chip.core chip 1).Chip.tlb in
  let map =
    Tlb.prepare (List.init 34 (fun i -> entry (i * 16 * mb) (i * 16 * mb) Page_size.P16m Tlb.perm_rwx))
  in
  let outside = Sys.opaque_identity (34 * 16 * mb) in
  let check what words =
    if words > 0.0 then Alcotest.failf "%s: %.2f minor words per call, expected 0" what words
  in
  check "miss hook"
    (tlb_words_per_call 10_000 (fun () ->
         ignore (Sys.opaque_identity (Tlb.translate tlb Tlb.Load outside))));
  check "warm static load"
    (tlb_words_per_call 10_000 (fun () -> ignore (Sys.opaque_identity (Tlb.load tlb map))));
  check_int "every miss counted" 10_001 (Upc.read (Chip.upc chip) ~core:1 Upc.Tlb_miss);
  check_int "every load counted in full" (34 * 10_001)
    (Upc.read (Chip.upc chip) ~core:1 Upc.Tlb_refill)

let tlb_entry_gen =
  let open QCheck.Gen in
  oneofl [ Page_size.P4k; Page_size.P64k; Page_size.P1m; Page_size.P16m ] >>= fun size ->
  let page = Page_size.bytes size in
  frequency
    [
      (* mostly aligned, on a small grid so overlaps are common *)
      (9, map2 (fun v p -> entry (v * page) (p * page) size Tlb.perm_rwx) (0 -- 15) (0 -- 15));
      (1, map2 (fun v p -> entry (v * 4096) (p * 4096) size Tlb.perm_rw) (0 -- 4095) (0 -- 4095));
    ]

let prop_tlb_load_matches_sequential =
  QCheck.Test.make ~name:"tlb: prepared load = flush + sequential installs, or a capacity error"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple (1 -- 10) (list_size (0 -- 4) tlb_entry_gen) (list_size (0 -- 14) tlb_entry_gen)))
    (fun (capacity, preload, entries) -> load_matches_sequential ~capacity ~preload entries)

(* ------------------------------------------------------------------ *)
(* Dac *)

let test_dac_store_watch () =
  let d = Dac.create () in
  Dac.set d ~slot:1 (Some { Dac.lo = 0x1000; hi = 0x2000; on_store = true; on_load = false });
  Alcotest.(check (option int)) "hit" (Some 1) (Dac.check_store d ~addr:0x1800);
  Alcotest.(check (option int)) "miss below" None (Dac.check_store d ~addr:0xfff);
  Alcotest.(check (option int)) "miss at hi" None (Dac.check_store d ~addr:0x2000);
  Alcotest.(check (option int)) "loads not watched" None (Dac.check_load d ~addr:0x1800)

let test_dac_clear () =
  let d = Dac.create () in
  Dac.set d ~slot:0 (Some { Dac.lo = 0; hi = 10; on_store = true; on_load = true });
  Dac.set d ~slot:0 None;
  Alcotest.(check (option int)) "cleared" None (Dac.check_store d ~addr:5)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_modulo_spreads_lines () =
  let c = Cache.create ~banks:8 Cache.Modulo_line in
  check_int "line 0" 0 (Cache.bank_of c 0);
  check_int "line 1" 1 (Cache.bank_of c 128);
  check_int "wraps" 0 (Cache.bank_of c (128 * 8))

let test_cache_fixed_conflicts () =
  let c = Cache.create ~banks:8 (Cache.Fixed 3) in
  for i = 0 to 99 do
    Cache.access c (i * 128)
  done;
  check_int "all on one bank" 100 (Cache.access_count c ~bank:3);
  Alcotest.(check (float 0.01)) "imbalance = banks" 8.0 (Cache.imbalance c)

let test_cache_xor_fold_balances_stride () =
  let c = Cache.create ~banks:8 Cache.Xor_fold in
  (* Pathological stride for the modulo mapping: every access hits the
     same modulo bank; xor-fold must spread it. *)
  for i = 0 to 799 do
    Cache.access c (i * 128 * 8)
  done;
  Alcotest.(check bool) "imbalance below 2x" true (Cache.imbalance c < 2.0)

(* ------------------------------------------------------------------ *)
(* Dram + Chip reset *)

let test_dram_self_refresh_preserves () =
  let d = Dram.create ~size:4096 in
  Memory.write (Dram.memory d) ~addr:0 (Bytes.of_string "persist");
  Dram.enter_self_refresh d;
  Dram.on_reset d;
  Alcotest.(check string) "survives" "persist"
    (Bytes.to_string (Memory.read (Dram.memory d) ~addr:0 ~len:7))

let test_dram_no_self_refresh_loses () =
  let d = Dram.create ~size:4096 in
  Memory.write (Dram.memory d) ~addr:0 (Bytes.of_string "gone");
  Dram.on_reset d;
  check_int "zeroed" 0 (Memory.read_byte (Dram.memory d) ~addr:0)

let test_chip_reset_clears_core_state () =
  let chip = Chip.create ~id:0 () in
  let core = Chip.core chip 0 in
  (match Tlb.install core.Chip.tlb (entry 0 0 Page_size.P1m Tlb.perm_rwx) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Dac.set core.Chip.dac ~slot:0
    (Some { Dac.lo = 0; hi = 100; on_store = true; on_load = false });
  core.Chip.retired <- 42;
  Chip.reset chip;
  check_int "tlb flushed" 0 (Tlb.entry_count core.Chip.tlb);
  Alcotest.(check (option int)) "dac cleared" None (Dac.check_store core.Chip.dac ~addr:50);
  check_int "retired cleared" 0 core.Chip.retired;
  check_int "reset counted" 1 (Chip.reset_count chip)

let test_chip_unit_status () =
  let chip = Chip.create ~id:0 () in
  Chip.check_unit chip Chip.Torus_unit;
  Chip.set_unit_status chip Chip.Torus_unit (Fault.Broken "arbiter");
  Alcotest.check_raises "broken raises"
    (Fault.Unavailable "torus broken: arbiter") (fun () ->
      Chip.check_unit chip Chip.Torus_unit)

let test_chip_skew_deterministic () =
  let a = Chip.manufacturing_skew (Chip.create ~id:7 ()) in
  let b = Chip.manufacturing_skew (Chip.create ~id:7 ()) in
  let c = Chip.manufacturing_skew (Chip.create ~id:8 ()) in
  Alcotest.(check (float 0.0)) "same id same skew" a b;
  Alcotest.(check bool) "different id different skew" true (a <> c);
  Alcotest.(check bool) "in range" true (a >= 0.0 && a < 1.0)

(* ------------------------------------------------------------------ *)
(* Torus *)

let mk_torus ?(dims = (4, 4, 4)) sim = Torus.create sim ~dims ()

let test_torus_rank_coord_roundtrip () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  for rank = 0 to Torus.node_count t - 1 do
    check_int "roundtrip" rank (Torus.rank_of_coord t (Torus.coord_of_rank t rank))
  done

let test_torus_hops_wraparound () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  let r000 = Torus.rank_of_coord t (0, 0, 0) in
  let r300 = Torus.rank_of_coord t (3, 0, 0) in
  (* On a ring of 4, 0 -> 3 is one hop the short way. *)
  check_int "wraparound" 1 (Torus.hops t ~src:r000 ~dst:r300);
  let r222 = Torus.rank_of_coord t (2, 2, 2) in
  check_int "manhattan" 6 (Torus.hops t ~src:r000 ~dst:r222);
  check_int "self" 0 (Torus.hops t ~src:r000 ~dst:r000)

let test_torus_transfer_timing () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  let p = Params.bgp in
  let arrived = ref (-1) in
  Torus.transfer t ~src:0 ~dst:1 ~bytes:1024
    ~on_arrival:(fun ~arrival_cycle -> arrived := arrival_cycle)
    ();
  ignore (Sim.run sim);
  let expected =
    p.Params.torus_inject_cycles + p.Params.torus_hop_cycles
    + int_of_float (Float.ceil (1024.0 /. p.Params.torus_link_bytes_per_cycle))
    + p.Params.torus_receive_cycles
  in
  check_int "1-hop timing" expected !arrived;
  check_int "estimate agrees" expected (Torus.estimate_cycles t ~src:0 ~dst:1 ~bytes:1024)

let test_torus_link_contention () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  let arrivals = ref [] in
  (* Two back-to-back transfers over the same link must serialize. *)
  Torus.transfer t ~src:0 ~dst:1 ~bytes:100_000
    ~on_arrival:(fun ~arrival_cycle -> arrivals := arrival_cycle :: !arrivals)
    ();
  Torus.transfer t ~src:0 ~dst:1 ~bytes:100_000
    ~on_arrival:(fun ~arrival_cycle -> arrivals := arrival_cycle :: !arrivals)
    ();
  ignore (Sim.run sim);
  match List.sort compare !arrivals with
  | [ a1; a2 ] ->
    let ser = int_of_float (Float.ceil (100_000.0 /. Params.bgp.Params.torus_link_bytes_per_cycle)) in
    Alcotest.(check bool) "second waits for link" true (a2 - a1 >= ser)
  | _ -> Alcotest.fail "expected two arrivals"

let test_torus_disjoint_links_parallel () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  let arrivals = ref [] in
  let record ~arrival_cycle = arrivals := arrival_cycle :: !arrivals in
  Torus.transfer t ~src:0 ~dst:1 ~bytes:100_000 ~on_arrival:record ();
  let src2 = Torus.rank_of_coord t (0, 1, 0) and dst2 = Torus.rank_of_coord t (0, 2, 0) in
  Torus.transfer t ~src:src2 ~dst:dst2 ~bytes:100_000 ~on_arrival:record ();
  ignore (Sim.run sim);
  match List.sort compare !arrivals with
  | [ a1; a2 ] -> check_int "same finish on disjoint links" a1 a2
  | _ -> Alcotest.fail "expected two arrivals"

let test_torus_injection_fifo_serializes () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  let arrivals = ref [] in
  let record ~arrival_cycle = arrivals := arrival_cycle :: !arrivals in
  (* two DMA descriptors from rank 0 to DIFFERENT destinations: disjoint
     wire links, but one injection FIFO *)
  Torus.transfer t ~src:0 ~dst:1 ~bytes:64 ~on_arrival:record ();
  let dst2 = Torus.rank_of_coord t (0, 1, 0) in
  Torus.transfer t ~src:0 ~dst:dst2 ~bytes:64 ~on_arrival:record ();
  ignore (Sim.run sim);
  (match List.sort compare !arrivals with
  | [ a1; a2 ] ->
    Alcotest.(check bool) "second descriptor waits for the FIFO" true
      (a2 - a1 >= Params.bgp.Params.torus_inject_cycles)
  | _ -> Alcotest.fail "expected two arrivals");
  (* different sources inject in parallel *)
  let sim2 = Sim.create () in
  let t2 = mk_torus sim2 in
  let arrivals2 = ref [] in
  let record2 ~arrival_cycle = arrivals2 := arrival_cycle :: !arrivals2 in
  Torus.transfer t2 ~src:0 ~dst:1 ~bytes:64 ~on_arrival:record2 ();
  let src2 = Torus.rank_of_coord t2 (0, 2, 0) and dst3 = Torus.rank_of_coord t2 (0, 3, 0) in
  Torus.transfer t2 ~src:src2 ~dst:dst3 ~bytes:64 ~on_arrival:record2 ();
  ignore (Sim.run sim2);
  match List.sort compare !arrivals2 with
  | [ a1; a2 ] -> check_int "independent FIFOs" a1 a2
  | _ -> Alcotest.fail "expected two arrivals"

let test_torus_disabled_raises () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  Torus.set_enabled t false;
  Alcotest.check_raises "raises" (Fault.Unavailable "torus") (fun () ->
      Torus.transfer t ~src:0 ~dst:1 ~bytes:8 ())

let prop_torus_hops_symmetric =
  QCheck.Test.make ~name:"torus hop count is symmetric" ~count:200
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      let sim = Sim.create () in
      let t = mk_torus sim in
      Torus.hops t ~src:a ~dst:b = Torus.hops t ~src:b ~dst:a)

let prop_torus_hops_bounded =
  QCheck.Test.make ~name:"torus hops bounded by sum of half-dims" ~count:200
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      let sim = Sim.create () in
      let t = mk_torus sim in
      Torus.hops t ~src:a ~dst:b <= 2 + 2 + 2)

(* A rank outside the torus has no links: breaking one and a local
   transfer there are refused like any other bad rank. *)
let test_torus_bad_rank_refused () =
  let sim = Sim.create () in
  let t = mk_torus ~dims:(2, 2, 1) sim in
  Alcotest.check_raises "break" (Invalid_argument "Torus.set_link_broken") (fun () ->
      Torus.set_link_broken t ~rank:4 ~dir:0 true);
  Alcotest.check_raises "local transfer" (Invalid_argument "Torus.coord_of_rank") (fun () ->
      Torus.transfer t ~src:4 ~dst:4 ~bytes:8 ());
  check_int "reads as idle" 0 (Torus.link_in_flight t ~rank:4 ~dir:0);
  Alcotest.(check bool) "reads as unbroken" false (Torus.link_broken t ~rank:(-1) ~dir:0);
  check_int "no transfer started" 0 (Torus.transfers_started t)

(* Each extra hop of a route costs one word (its link index), so a
   two-hop transfer along X allocates at most 6 words more than a
   one-hop one on a warm torus. *)
let test_torus_extra_hop_allocation () =
  let sim = Sim.create () in
  let t = mk_torus sim in
  let words dst =
    let before = Gc.minor_words () in
    Torus.transfer t ~src:0 ~dst ~bytes:512 ();
    let w = Gc.minor_words () -. before in
    ignore (Sim.run sim);
    w
  in
  let r100 = Torus.rank_of_coord t (1, 0, 0) and r200 = Torus.rank_of_coord t (2, 0, 0) in
  check_int "two hops" 2 (Torus.hops t ~src:0 ~dst:r200);
  ignore (words r100);
  ignore (words r200);
  let one = words r100 in
  let two = words r200 in
  if two -. one > 6.0 then
    Alcotest.failf "two-hop transfer allocates %.0f words, one-hop %.0f" two one

(* Model test: the flat-array torus against the hash-table one it
   replaced ([Torus_reference]), on twin simulators. Random dims of 1-4
   per axis, then transfers (including bad ranks and sizes), clock
   advances and link breaks and repairs; after every operation both must
   agree on its outcome, on every arrival and hook call so far, on hops
   for every pair, on every link's counters, on the link lists and totals
   and on the capture bytes. *)

type torus_op =
  | T_transfer of { src : int; dst : int; bytes : int }
  | T_advance of int
  | T_break of { rank : int; dir : int; broken : bool }

let pp_torus_op = function
  | T_transfer { src; dst; bytes } -> Printf.sprintf "transfer %d->%d %dB" src dst bytes
  | T_advance d -> Printf.sprintf "advance %d" d
  | T_break { rank; dir; broken } ->
    Printf.sprintf "%s %d/%d" (if broken then "break" else "repair") rank dir

let gen_torus_case =
  let open QCheck.Gen in
  let* dims = triple (1 -- 4) (1 -- 4) (1 -- 4) in
  let x, y, z = dims in
  let n = x * y * z in
  let rank = frequency [ (12, 0 -- (n - 1)); (1, return (-1)); (1, return n) ] in
  let transfer =
    map3
      (fun src dst bytes ->
        (* a local transfer at a bad rank is where the two differ: the
           reference accepted it, the flat torus refuses it *)
        let dst = if src = dst && (src < 0 || src >= n) then 0 else dst in
        T_transfer { src; dst; bytes })
      rank rank
      (frequency [ (8, 0 -- 4096); (1, return (-1)) ])
  in
  let advance = map (fun d -> T_advance d) (frequency [ (3, 0 -- 200); (2, 200 -- 5000) ]) in
  let break =
    map3
      (fun rank dir broken -> T_break { rank; dir; broken })
      (0 -- (n - 1))
      (frequency [ (10, 0 -- 5); (1, return (-1)); (1, return 6) ])
      (frequency [ (2, return true); (1, return false) ])
  in
  let+ ops = list_size (20 -- 40) (frequency [ (5, transfer); (3, advance); (2, break) ]) in
  (dims, ops)

let prop_torus_matches_hashtable_reference =
  let module R = Torus_reference in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Fault.Unavailable s -> Error ("unavailable: " ^ s)
    | exception Invalid_argument s -> Error ("invalid: " ^ s)
    | exception e ->
      (* the two modules' private exceptions, by their last name *)
      let name = Printexc.exn_slot_name e in
      Error (List.hd (List.rev (String.split_on_char '.' name)))
  in
  QCheck.Test.make ~name:"torus: flat arrays match the hash-table reference" ~count:150
    (QCheck.make
       ~print:(fun ((x, y, z), ops) ->
         Printf.sprintf "%dx%dx%d: %s" x y z (String.concat "; " (List.map pp_torus_op ops)))
       gen_torus_case)
    (fun (dims, ops) ->
      let sim = Sim.create () and ref_sim = Sim.create () in
      let t = Torus.create sim ~dims () and r = R.create ref_sim ~dims () in
      let log = ref [] and ref_log = ref [] in
      Torus.set_inject_hook t (fun ~src -> log := `Inject src :: !log);
      R.set_inject_hook r (fun ~src -> ref_log := `Inject src :: !ref_log);
      Torus.set_link_down_hook t (fun ~rank ~dir ~in_flight ->
          log := `Down (rank, dir, in_flight) :: !log);
      R.set_link_down_hook r (fun ~rank ~dir ~in_flight ->
          ref_log := `Down (rank, dir, in_flight) :: !ref_log);
      let n = Torus.node_count t in
      let capture f x =
        let b = Buffer.create 256 in
        f x b;
        Buffer.contents b
      in
      let agree op_result ref_result =
        let fail what = QCheck.Test.fail_reportf "%s differs" what in
        if op_result <> ref_result then fail "outcome";
        if !log <> !ref_log then fail "arrival/hook log";
        if Sim.now sim <> Sim.now ref_sim then fail "clock";
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if outcome (fun () -> Torus.hops t ~src ~dst) <> outcome (fun () -> R.hops r ~src ~dst)
            then fail (Printf.sprintf "hops %d->%d" src dst)
          done;
          for dir = 0 to 5 do
            if Torus.link_in_flight t ~rank:src ~dir <> R.link_in_flight r ~rank:src ~dir then
              fail (Printf.sprintf "in_flight %d/%d" src dir);
            if Torus.link_busy_cycles t ~rank:src ~dir <> R.link_busy_cycles r ~rank:src ~dir then
              fail (Printf.sprintf "busy_cycles %d/%d" src dir);
            if Torus.link_broken t ~rank:src ~dir <> R.link_broken r ~rank:src ~dir then
              fail (Printf.sprintf "broken %d/%d" src dir)
          done
        done;
        if Torus.busy_links t <> R.busy_links r then fail "busy_links";
        if Torus.broken_links t <> R.broken_links r then fail "broken_links";
        if Torus.total_busy_cycles t <> R.total_busy_cycles r then fail "total_busy_cycles";
        if Torus.transfers_started t <> R.transfers_started r then fail "transfers_started";
        if capture Torus.capture t <> capture R.capture r then fail "capture"
      in
      List.iteri
        (fun i op ->
          match op with
          | T_transfer { src; dst; bytes } ->
            let arrived log ~arrival_cycle = log := `Arrive (i, arrival_cycle) :: !log in
            agree
              (outcome (fun () ->
                   Torus.transfer t ~src ~dst ~bytes ~on_arrival:(arrived log) ()))
              (outcome (fun () -> R.transfer r ~src ~dst ~bytes ~on_arrival:(arrived ref_log) ()))
          | T_advance d ->
            let until = Sim.now sim + d in
            agree
              (outcome (fun () -> ignore (Sim.run ~until sim)))
              (outcome (fun () -> ignore (Sim.run ~until ref_sim)))
          | T_break { rank; dir; broken } ->
            agree
              (outcome (fun () -> Torus.set_link_broken t ~rank ~dir broken))
              (outcome (fun () -> R.set_link_broken r ~rank ~dir broken)))
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Collective net *)

let test_collective_grouping () =
  let sim = Sim.create () in
  let c = Collective_net.create sim ~compute_nodes:64 ~nodes_per_io_node:16 () in
  check_int "io nodes" 4 (Collective_net.io_node_count c);
  check_int "cn 0" 0 (Collective_net.io_node_of c ~cn:0);
  check_int "cn 15" 0 (Collective_net.io_node_of c ~cn:15);
  check_int "cn 16" 1 (Collective_net.io_node_of c ~cn:16);
  check_int "cn 63" 3 (Collective_net.io_node_of c ~cn:63)

let test_collective_serializes_shared_uplink () =
  let sim = Sim.create () in
  let c = Collective_net.create sim ~compute_nodes:16 ~nodes_per_io_node:16 () in
  let arrivals = ref [] in
  let record ~payload:_ ~arrival_cycle = arrivals := arrival_cycle :: !arrivals in
  Collective_net.to_io_node c ~cn:0 ~payload:(Bytes.create 10_000) ~on_arrival:record;
  Collective_net.to_io_node c ~cn:1 ~payload:(Bytes.create 10_000) ~on_arrival:record;
  ignore (Sim.run sim);
  match List.sort compare !arrivals with
  | [ a1; a2 ] ->
    Alcotest.(check bool) "second queues" true (a2 - a1 >= 10_000 / 1)
  | _ -> Alcotest.fail "expected two arrivals"

let test_collective_disabled () =
  let sim = Sim.create () in
  let c = Collective_net.create sim ~compute_nodes:4 ~nodes_per_io_node:4 () in
  Collective_net.set_enabled c false;
  Alcotest.check_raises "raises" (Fault.Unavailable "collective") (fun () ->
      Collective_net.to_io_node c ~cn:0 ~payload:(Bytes.create 8)
        ~on_arrival:(fun ~payload:_ ~arrival_cycle:_ -> ()))

(* ------------------------------------------------------------------ *)
(* Barrier net *)

let test_barrier_releases_all_together () =
  let sim = Sim.create () in
  let b = Barrier_net.create sim ~participants:4 () in
  let releases = ref [] in
  let arrive_at rank when_ =
    ignore
      (Sim.schedule_at sim when_ (fun () ->
           Barrier_net.arrive b ~rank ~on_release:(fun ~release_cycle ->
               releases := (rank, release_cycle) :: !releases)))
  in
  arrive_at 0 10;
  arrive_at 1 500;
  arrive_at 2 20;
  arrive_at 3 999;
  ignore (Sim.run sim);
  check_int "all released" 4 (List.length !releases);
  let times = List.map snd !releases in
  let expected = 999 + Params.bgp.Params.barrier_round_cycles in
  List.iter (fun c -> check_int "release = last arrival + round" expected c) times;
  check_int "generation" 1 (Barrier_net.generation b)

let test_barrier_double_arrive_rejected () =
  let sim = Sim.create () in
  let b = Barrier_net.create sim ~participants:2 () in
  Barrier_net.arrive b ~rank:0 ~on_release:(fun ~release_cycle:_ -> ());
  Alcotest.check_raises "double arrive"
    (Invalid_argument "Barrier_net.arrive: rank already waiting") (fun () ->
      Barrier_net.arrive b ~rank:0 ~on_release:(fun ~release_cycle:_ -> ()))

let test_barrier_generations () =
  let sim = Sim.create () in
  let b = Barrier_net.create sim ~participants:2 () in
  let count = ref 0 in
  let rec loop rank remaining =
    if remaining > 0 then
      Barrier_net.arrive b ~rank ~on_release:(fun ~release_cycle:_ ->
          incr count;
          loop rank (remaining - 1))
  in
  loop 0 3;
  loop 1 3;
  ignore (Sim.run sim);
  check_int "three generations" 3 (Barrier_net.generation b);
  check_int "six releases" 6 !count

(* ------------------------------------------------------------------ *)
(* Clock stop *)

let test_clock_stop_halts () =
  let sim = Sim.create () in
  let chip = Chip.create ~id:3 () in
  let cs = Clock_stop.create sim ~chip in
  Clock_stop.arm cs ~at_cycle:100;
  ignore (Sim.schedule_at sim 200 (fun () -> Alcotest.fail "ran past stop"));
  match Sim.run sim with
  | Sim.Halted reason -> Alcotest.(check string) "reason" "clock-stop:3" reason
  | _ -> Alcotest.fail "expected halt"

let test_clock_stop_disarm () =
  let sim = Sim.create () in
  let chip = Chip.create ~id:0 () in
  let cs = Clock_stop.create sim ~chip in
  Clock_stop.arm cs ~at_cycle:100;
  Clock_stop.disarm cs;
  let ran = ref false in
  ignore (Sim.schedule_at sim 200 (fun () -> ran := true));
  (match Sim.run sim with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check bool) "later event ran" true !ran

(* ------------------------------------------------------------------ *)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_memory_roundtrip;
      prop_torus_hops_symmetric;
      prop_torus_hops_bounded;
      prop_torus_matches_hashtable_reference;
      prop_tlb_load_matches_sequential;
    ]

let suite =
  [
    Alcotest.test_case "memory: roundtrip" `Quick test_memory_rw_roundtrip;
    Alcotest.test_case "memory: cross chunk" `Quick test_memory_cross_chunk;
    Alcotest.test_case "memory: untouched zero" `Quick test_memory_untouched_is_zero;
    Alcotest.test_case "memory: bounds" `Quick test_memory_bounds;
    Alcotest.test_case "memory: int64" `Quick test_memory_int64;
    Alcotest.test_case "memory: copy" `Quick test_memory_copy;
    Alcotest.test_case "memory: digest tracks writes" `Quick test_memory_digest_tracks_writes;
    Alcotest.test_case "tlb: hit" `Quick test_tlb_hit_translation;
    Alcotest.test_case "tlb: miss" `Quick test_tlb_miss;
    Alcotest.test_case "tlb: perm fault" `Quick test_tlb_perm_fault;
    Alcotest.test_case "tlb: alignment" `Quick test_tlb_alignment_rejected;
    Alcotest.test_case "tlb: overlap" `Quick test_tlb_overlap_rejected;
    Alcotest.test_case "tlb: fifo eviction" `Quick test_tlb_fifo_eviction;
    Alcotest.test_case "tlb: fifo evicts exactly the oldest" `Quick
      test_tlb_fifo_evicts_exactly_oldest;
    Alcotest.test_case "tlb: prepared load = sequential installs" `Quick
      test_tlb_load_matches_sequential;
    Alcotest.test_case "tlb: miss hook and warm load allocate nothing" `Quick
      test_tlb_hooks_allocate_nothing;
    Alcotest.test_case "dac: store watch" `Quick test_dac_store_watch;
    Alcotest.test_case "dac: clear" `Quick test_dac_clear;
    Alcotest.test_case "cache: modulo mapping" `Quick test_cache_modulo_spreads_lines;
    Alcotest.test_case "cache: fixed bank conflicts" `Quick test_cache_fixed_conflicts;
    Alcotest.test_case "cache: xor-fold balances" `Quick test_cache_xor_fold_balances_stride;
    Alcotest.test_case "dram: self-refresh preserves" `Quick test_dram_self_refresh_preserves;
    Alcotest.test_case "dram: reset without refresh loses" `Quick test_dram_no_self_refresh_loses;
    Alcotest.test_case "chip: reset clears cores" `Quick test_chip_reset_clears_core_state;
    Alcotest.test_case "chip: unit status" `Quick test_chip_unit_status;
    Alcotest.test_case "chip: skew deterministic" `Quick test_chip_skew_deterministic;
    Alcotest.test_case "torus: rank/coord roundtrip" `Quick test_torus_rank_coord_roundtrip;
    Alcotest.test_case "torus: wraparound + manhattan" `Quick test_torus_hops_wraparound;
    Alcotest.test_case "torus: transfer timing" `Quick test_torus_transfer_timing;
    Alcotest.test_case "torus: link contention" `Quick test_torus_link_contention;
    Alcotest.test_case "torus: disjoint links parallel" `Quick test_torus_disjoint_links_parallel;
    Alcotest.test_case "torus: injection fifo" `Quick test_torus_injection_fifo_serializes;
    Alcotest.test_case "torus: disabled raises" `Quick test_torus_disabled_raises;
    Alcotest.test_case "torus: bad rank refused" `Quick test_torus_bad_rank_refused;
    Alcotest.test_case "torus: extra hop allocation" `Quick test_torus_extra_hop_allocation;
    Alcotest.test_case "collective: grouping" `Quick test_collective_grouping;
    Alcotest.test_case "collective: shared uplink serializes" `Quick
      test_collective_serializes_shared_uplink;
    Alcotest.test_case "collective: disabled raises" `Quick test_collective_disabled;
    Alcotest.test_case "barrier: releases together" `Quick test_barrier_releases_all_together;
    Alcotest.test_case "barrier: double arrive" `Quick test_barrier_double_arrive_rejected;
    Alcotest.test_case "barrier: generations" `Quick test_barrier_generations;
    Alcotest.test_case "clock-stop: halts" `Quick test_clock_stop_halts;
    Alcotest.test_case "clock-stop: disarm" `Quick test_clock_stop_disarm;
  ]
  @ qcheck
