(* Tests for the snapshot subsystem: container codec round-trip and
   corruption behavior (typed errors, never a raise), the shared sparse
   delta codec's bit-compatibility with the pre-existing Ckpt wire
   format, capture determinism, the restore-continuation invariant on
   both kernels, and divergence bisection landing on the seeded glitch. *)

module Snap = Bg_snap.Snap
module Snaprun = Bg_snaprun.Snaprun

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_file () =
  {
    Snap.format_version = Snap.format_version;
    scenario = "test";
    knobs = [ ("glitch", "1"); ("iters", "7") ];
    seed = 42L;
    events = 12345;
    clock = 987654321;
    regions =
      [
        { Snap.layer = "engine.sim"; layer_version = 1; payload = Bytes.of_string "abcd" };
        { Snap.layer = "hw.chips"; layer_version = 1; payload = Bytes.create 0 };
        {
          Snap.layer = "cnk.nodes";
          layer_version = 3;
          payload = Bytes.init 257 (fun i -> Char.chr (i land 0xff));
        };
      ];
  }

let test_container_round_trip () =
  let f = sample_file () in
  match Snap.decode (Snap.encode f) with
  | Ok f' ->
    check_bool "round-trips" true (f = f');
    check_bool "equal" true (Snap.equal f f');
    check_bool "find_region" true (Snap.find_region f' "cnk.nodes" <> None);
    check_bool "missing region" true (Snap.find_region f' "nope" = None)
  | Error e -> Alcotest.fail (Snap.decode_error_to_string e)

(* Every truncation and every single-byte corruption must come back as a
   typed error — the CRC covers the whole body, the magic and version
   guard the header — and must never raise. *)
let test_decode_never_raises () =
  let b = Snap.encode (sample_file ()) in
  let n = Bytes.length b in
  for len = 0 to n - 1 do
    match Snap.decode (Bytes.sub b 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d decoded" len
    | Error _ -> ()
  done;
  for i = 0 to n - 1 do
    let c = Bytes.copy b in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x40));
    match Snap.decode c with
    | Ok _ -> Alcotest.failf "corruption at byte %d went undetected" i
    | Error _ -> ()
  done

let test_decode_trailing_garbage () =
  let b = Snap.encode (sample_file ()) in
  let c = Bytes.cat b (Bytes.of_string "zz") in
  check_bool "trailing bytes rejected" true (Snap.decode c <> Ok (sample_file ()))

(* The sparse codec must produce byte-for-byte the delta format Ckpt has
   always written: [count][addr len]... header then raw range data. *)
let test_sparse_golden_bytes () =
  let ranges = [ (4096, 16); (8192, 8) ] in
  let read ~addr ~len = Bytes.init len (fun i -> Char.chr ((addr + i) land 0xff)) in
  (* hand-built, exactly as lib/resilience/ckpt.ml wrote it before *)
  let count = List.length ranges in
  let head = Bytes.create (8 * (1 + (2 * count))) in
  Bytes.set_int64_le head 0 (Int64.of_int count);
  List.iteri
    (fun i (a, l) ->
      Bytes.set_int64_le head (8 * (1 + (2 * i))) (Int64.of_int a);
      Bytes.set_int64_le head (8 * (2 + (2 * i))) (Int64.of_int l))
    ranges;
  let golden =
    Bytes.concat Bytes.empty
      (head :: List.map (fun (a, l) -> read ~addr:a ~len:l) ranges)
  in
  Alcotest.(check string)
    "header matches"
    (Bytes.to_string head)
    (Bytes.to_string (Snap.Sparse.encode_header ranges));
  let enc = Snap.Sparse.encode ~ranges ~read in
  Alcotest.(check string) "full delta matches" (Bytes.to_string golden)
    (Bytes.to_string enc);
  (match Snap.Sparse.decode enc with
  | Ok got ->
    check_bool "decode round-trips" true
      (got = List.map (fun (a, l) -> (a, read ~addr:a ~len:l)) ranges)
  | Error e -> Alcotest.fail (Snap.decode_error_to_string e));
  (* truncated data is a typed error, never a raise *)
  for len = 0 to Bytes.length enc - 1 do
    match Snap.Sparse.decode (Bytes.sub enc 0 len) with
    | Ok got ->
      (* a prefix can only legitimately decode as the empty delta *)
      check_bool "short prefix decodes only as empty" true (got = [] && len >= 8)
    | Error _ -> ()
  done

let scn name =
  match Snaprun.find name with
  | Some s -> s
  | None -> Alcotest.failf "scenario %s missing" name

(* Capturing twice without stepping must produce identical bytes —
   capture has no side effects and hash iteration is sorted away. *)
let test_capture_idempotent () =
  let s = scn "cnk_io" in
  let inst, a, _ = Snaprun.snapshot_at s ~seed:3L ~knobs:[] ~events:40 in
  let b = Snaprun.snapshot_of s inst ~knobs:[] in
  check_bool "captures byte-identical" true
    (Snap.encode a = Snap.encode b);
  check_bool "diff empty" true (Snap.diff a b = None)

(* Golden capture bytes: the FNV digest of each kernel's node region at
   fixed event cursors, seed 7 (cnk_io drains at 145 events, fwk_noise at
   19). The constants pin [Node.capture] output across commits, so a
   refactor of either kernel that changes a single captured byte (field
   order, a counter, a queue position) fails here. *)
let capture_goldens =
  [
    ( "cnk_io",
      "cnk.nodes",
      [ (40, 0xd59e7b055bea813fL); (90, 0x6db69b3347fff65bL); (140, 0x66b89ca76128c67bL) ] );
    ( "fwk_noise",
      "fwk.node",
      [ (6, 0x762d364c0f65cec5L); (12, 0x4be7bdb63b0aedd5L); (18, 0xc758c12d1a37fd65L) ] );
  ]

let test_capture_golden () =
  List.iter
    (fun (name, layer, cursors) ->
      let s = scn name in
      List.iter
        (fun (events, want) ->
          let _, file, outcome = Snaprun.snapshot_at s ~seed:7L ~knobs:[] ~events in
          check_bool (Printf.sprintf "%s reached %d" name events) true (outcome = `Reached);
          match Snap.find_region file layer with
          | None -> Alcotest.failf "%s: no %s region" name layer
          | Some r ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s @%d" name layer events)
              (Bg_engine.Fnv.to_hex want)
              (Bg_engine.Fnv.to_hex (Bg_engine.Fnv.add_bytes Bg_engine.Fnv.empty r.Snap.payload)))
        cursors)
    capture_goldens

(* The tentpole invariant: snapshot at event N, restore (replay +
   byte-verify), continue to completion — the digests must equal the
   uninterrupted run's. *)
let restore_invariant name ~knobs =
  let s = scn name in
  let ref_inst = s.Snaprun.build ~seed:7L ~knobs in
  let final = Snaprun.run_until_quiet ref_inst in
  let want = Snaprun.digests ref_inst in
  let cursor = final / 2 in
  let _, file, outcome = Snaprun.snapshot_at s ~seed:7L ~knobs ~events:cursor in
  check_bool "reached cursor" true (outcome = `Reached);
  let file =
    match Snap.decode (Snap.encode file) with
    | Ok f -> f
    | Error e -> Alcotest.fail (Snap.decode_error_to_string e)
  in
  match Snaprun.restore s file with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    check_int "restored at cursor" cursor
      (Bg_engine.Sim.events_fired inst.Snaprun.machine.Bg_kabi.Machine.sim);
    ignore (Snaprun.run_until_quiet inst);
    check_bool "continuation digests equal" true (Snaprun.digests inst = want)

let test_restore_invariant_cnk () =
  restore_invariant "cnk_io" ~knobs:[ ("iters", "8") ]

let test_restore_invariant_fwk () =
  restore_invariant "fwk_noise" ~knobs:[ ("quanta", "10") ]

(* Replaying a snapshot under the wrong knobs must fail verification
   with a typed mismatch naming the diverging region. *)
let test_restore_detects_wrong_knobs () =
  let s = scn "fwk_noise" in
  let _, file, outcome =
    Snaprun.snapshot_at s ~seed:7L ~knobs:[ ("glitch", "1") ] ~events:12
  in
  check_bool "reached cursor" true (outcome = `Reached);
  let forged = { file with Snap.knobs = [ ("glitch", "0") ] } in
  match Snaprun.restore s forged with
  | Ok _ -> Alcotest.fail "restore accepted a forged knob set"
  | Error msg ->
    check_bool "mismatch names a region" true
      (String.length msg > 0
      &&
      let rec has_sub i =
        i + 8 <= String.length msg && (String.sub msg i 8 = "diverges" || has_sub (i + 1))
      in
      has_sub 0)

let test_machine_restore_cursor_errors () =
  let s = scn "fwk_noise" in
  let inst, file, _ = Snaprun.snapshot_at s ~seed:7L ~knobs:[] ~events:10 in
  (* already past the cursor *)
  ignore (Snaprun.run_to inst ~events:12);
  (match Bg_kabi.Machine.restore inst.Snaprun.machine ~extra:inst.Snaprun.extra file with
  | Error (Bg_kabi.Machine.Cursor_passed _) -> ()
  | _ -> Alcotest.fail "expected Cursor_passed");
  (* cursor beyond the queue drain *)
  let fresh = s.Snaprun.build ~seed:7L ~knobs:[] in
  let beyond = { file with Snap.events = 1_000_000 } in
  match Bg_kabi.Machine.restore fresh.Snaprun.machine ~extra:fresh.Snaprun.extra beyond with
  | Error (Bg_kabi.Machine.Queue_drained _) -> ()
  | _ -> Alcotest.fail "expected Queue_drained"

(* Bisection must land exactly on the glitch event and stay within the
   O(log) probe budget. *)
let test_bisect_lands_on_glitch () =
  let s = scn "fwk_noise" in
  match
    Snaprun.bisect s ~seed:1L ~knobs_a:[ ("glitch", "0") ] ~knobs_b:[ ("glitch", "1") ]
      ~start:4 ()
  with
  | Error e -> Alcotest.fail e
  | Ok d ->
    (* the divergent capture carries the glitch span on the b side only *)
    (match d.Snaprun.div_span with
    | Some ("b", sp) ->
      Alcotest.(check string) "span cat" "snap" sp.Bg_obs.Obs.cat;
      Alcotest.(check string) "span name" "glitch" sp.Bg_obs.Obs.name
    | _ -> Alcotest.fail "offending span is not the glitch");
    check_bool "O(log) probes" true (d.Snaprun.div_probes <= 16);
    (* the event just before the answer is capture-identical *)
    let cap knobs events =
      let inst = s.Snaprun.build ~seed:1L ~knobs in
      ignore (Snaprun.run_to inst ~events);
      Snaprun.snapshot_of s inst ~knobs
    in
    let before = d.Snaprun.div_event - 1 in
    check_bool "equal just before divergence" true
      (Snap.diff (cap [ ("glitch", "0") ] before) (cap [ ("glitch", "1") ] before) = None);
    check_bool "divergent at the answer" true
      (Snap.diff
         (cap [ ("glitch", "0") ] d.Snaprun.div_event)
         (cap [ ("glitch", "1") ] d.Snaprun.div_event)
      <> None)

let suite =
  [
    Alcotest.test_case "container round-trip" `Quick test_container_round_trip;
    Alcotest.test_case "decode never raises: truncations and bit flips" `Quick
      test_decode_never_raises;
    Alcotest.test_case "decode rejects trailing garbage" `Quick
      test_decode_trailing_garbage;
    Alcotest.test_case "sparse delta: golden bytes vs legacy Ckpt format" `Quick
      test_sparse_golden_bytes;
    Alcotest.test_case "capture is idempotent and deterministic" `Quick
      test_capture_idempotent;
    Alcotest.test_case "capture bytes match the golden digests" `Quick test_capture_golden;
    Alcotest.test_case "restore continuation invariant (CNK)" `Quick
      test_restore_invariant_cnk;
    Alcotest.test_case "restore continuation invariant (FWK)" `Quick
      test_restore_invariant_fwk;
    Alcotest.test_case "restore rejects forged knobs with region mismatch" `Quick
      test_restore_detects_wrong_knobs;
    Alcotest.test_case "Machine.restore cursor errors are typed" `Quick
      test_machine_restore_cursor_errors;
    Alcotest.test_case "bisect lands on the seeded glitch" `Quick
      test_bisect_lands_on_glitch;
  ]
