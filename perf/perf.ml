(* perf — the standing host-performance benchmark.

     dune exec perf/perf.exe -- run [--seed N] [--out FILE]
     dune exec perf/perf.exe -- run --trace [--seed N] [--out-dir DIR]
     dune exec perf/perf.exe -- compare A.json B.json
     dune exec perf/perf.exe -- probes
     dune exec perf/perf.exe -- goldens > perf/goldens.ml
     dune exec perf/perf.exe -- selftest SCHED_TOOL
     dune exec perf/perf.exe -- --workload W --seed N --seconds S --trace 0|1

   Every measurement runs in a child process (this same executable,
   [child] subcommand), so each sample starts from a fresh heap and the
   child's peak RSS is the workload's own. A round spawns one child per
   workload in a fixed order; each child runs one untimed warm-up
   iteration, then timed iterations back to back from one thread.
   Rounds interleave the workloads so that a burst of host noise lands
   on all of them rather than on one. See README.md for the metrics. *)

module W = Workloads
module Export = Bg_obs.Export
module Stats = Bg_engine.Stats

let now = Unix.gettimeofday
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                     *)

type better = Lower | Higher

type e2e = { name : string; unit_ : string; better : better; bound : float }

(* [bound]: the share of the baseline median by which a metric may get
   worse before [compare] calls it a regression; a pair whose quartile
   spread is wider than the bound is unresolved instead. error_rate may
   not rise at all. *)
let end_to_end =
  [
    { name = "wall_s"; unit_ = "s"; better = Lower; bound = 0.10 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.10 };
    { name = "events_per_s"; unit_ = "1/s"; better = Higher; bound = 0.10 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.05 };
    { name = "error_rate"; unit_ = "ratio"; better = Lower; bound = 0. };
  ]

let policies = List.map Bg_sched.Strategy.kind_name Bg_sched.Strategy.all_kinds

(* (name, unit), in report order. Every traced child reports all of
   them; a layer a workload never enters reads 0. *)
let per_layer =
  [
    ("engine.events", "count");
    ("engine.ns_per_event", "ns");
    ("engine.queue_ns.d16", "ns");
    ("engine.queue_ns.d4096", "ns");
    ("core.boot_s", "s");
    ("core.job_us", "us");
    ("fwk.job_us", "us");
    ("hw.torus_transfers", "count");
    ("hw.link_busy_cycles", "cycles");
    ("hw.dma_descriptors", "count");
    ("hw.dma_inject_stalls", "count");
    ("hw.mem4k_ns", "ns");
    ("msg.fabric_s", "s");
    ("cio.requests", "count");
    ("cio.retransmits", "count");
    ("cio.proto_ns", "ns");
    ("obs.spans", "count");
    ("obs.causal_nodes", "count");
    ("obs.causal_edges", "count");
    ("obs.dropped", "count");
    ("obs.metric_keys", "count");
    ("obs.collect_s", "s");
    ("obs.cost_ratio", "ratio");
    ("obs.incr_ns", "ns");
    ("obs.span_ns", "ns");
  ]
  @ List.map (fun p -> ("sched.run_s." ^ p, "s")) policies
  @ List.map (fun p -> ("sched.alloc_mw." ^ p, "Mw")) policies
  @ [
      ("sched.generate_s", "s");
      ("sched.backfilled", "count");
      ("sched.gangs", "count");
      ("sched.wait_p99_cycles", "cycles");
      ("resilience.transitions", "count");
      ("gc.minor_mw", "Mw");
      ("gc.promoted_mw", "Mw");
      ("gc.major_collections", "count");
      ("sim.cycles", "cycles");
      ("bench.trace_overhead", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* JSON: the writer for every report, the reader for [compare]          *)

module Json = struct
  type t = Num of float | Str of string | Bool of bool | Arr of t list | Obj of (string * t) list

  let num x =
    if not (Float.is_finite x) then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x

  let rec to_string = function
    | Num x -> num x
    | Str s -> "\"" ^ Export.json_escape s ^ "\""
    | Bool b -> string_of_bool b
    | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
    | Obj l ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ Export.json_escape k ^ "\":" ^ to_string v) l)
      ^ "}"

  exception Bad of string

  (* Enough of RFC 8259 to read back what [to_string] writes. *)
  let parse s =
    let n = String.length s and pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let rec ws () =
      if !pos < n && String.contains " \t\r\n" s.[!pos] then (
        incr pos;
        ws ())
    in
    let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ()
    in
    let rec value () =
      ws ();
      match peek () with
      | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
              incr pos;
              members ((k, v) :: acc)
            | '}' ->
              incr pos;
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
      | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec elements acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
              incr pos;
              elements (v :: acc)
            | ']' ->
              incr pos;
              Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
      | '"' -> Str (str ())
      | 't' when !pos + 4 <= n && String.sub s !pos 4 = "true" ->
        pos := !pos + 4;
        Bool true
      | 'f' when !pos + 5 <= n && String.sub s !pos 5 = "false" ->
        pos := !pos + 5;
        Bool false
      | 'n' when !pos + 4 <= n && String.sub s !pos 4 = "null" ->
        pos := !pos + 4;
        Num Float.nan
      | '-' | '0' .. '9' ->
        let start = !pos in
        while !pos < n && String.contains "+-.eE0123456789" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail "bad number")
      | _ -> fail "expected a value"
    in
    match value () with
    | v ->
      ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos) else Ok v
    | exception Bad msg -> Error msg

  let member k = function Obj l -> List.assoc_opt k l | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Child side: run one workload, report on stdout                       *)

(* Protocol lines start with this tag; anything else is ignored. *)
let tag = "@perf"
let emit fmt = Printf.printf ("%s " ^^ fmt ^^ "\n%!") tag

let golden_digests name =
  List.filter_map (fun (w, k, v) -> if w = name then Some (k, v) else None) Goldens.table

(* Why an iteration's output is wrong, if it is. *)
let verdict ~expected (o : W.outcome) =
  match o.W.invariant with
  | Some reason -> Some reason
  | None ->
    let keys l = List.sort compare (List.map fst l) in
    if keys expected <> keys o.W.digests then
      Some
        (Printf.sprintf "digest keys [%s], expected [%s]"
           (String.concat " " (keys o.W.digests))
           (String.concat " " (keys expected)))
    else
      match
        List.filter_map
          (fun (k, v) ->
            let want = List.assoc k expected in
            if v = want then None else Some (Printf.sprintf "%s=%s expected %s" k v want))
          o.W.digests
      with
      | [] -> None
      | bad -> Some (String.concat "; " bad)

let encode_digests ds = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) ds)
let median xs = Stats.percentile (Array.of_list xs) 0.5

(* Folded-stack weights come out in simulated-clock ticks of host time;
   rescale them to whole host microseconds. *)
let folded_in_us folded =
  String.split_on_char '\n' folded
  |> List.filter_map (fun line ->
         match String.rindex_opt line ' ' with
         | None -> None
         | Some i ->
           let w = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
           let us = Float.to_int (Float.round (Bg_engine.Cycles.to_us w)) in
           if us = 0 then None else Some (Printf.sprintf "%s %d\n" (String.sub line 0 i) us))
  |> String.concat ""

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Export.to_file ~path contents

(* The child's high-water resident set, less the kernel's buffer. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
               (float_of_int kb /. 1024.) -. Clock.kernel_mb)
         | _ -> None)
  |> function
  | Some mb -> mb
  | None -> failwith "no VmHWM line in /proc/self/status"

(* One timed iteration: [f] gets the clock its phases report to. *)
let timed f =
  let clock = Clock.start () in
  let o = f ~clock in
  (Clock.stop clock, o)

(* [Iters k]: k timed iterations after the warm-up. [Share (budget, n)]:
   this child and up to n - 1 after it share [budget] seconds, warm-ups
   included; the child takes its share and runs as many timed
   iterations as fit in it, judging each by the one before; at least
   one. *)
type plan = Iters of int | Share of float * int

(* How many children [budget] holds when each runs a warm-up and three
   timed iterations of [iteration_s]: fewer when iterations are long. *)
let children_fitting budget ~iteration_s = Float.to_int (budget /. (4. *. iteration_s))

(* The traced pass, after the untraced samples it is compared against. *)
let trace_pass (w : W.t) ~seed ~expected ~samples ~out_dir =
  let tr = W.tracer () in
  let traced, (o, gc0, gc1) =
    timed (fun ~clock ->
        let gc0 = Gc.quick_stat () in
        let o =
          W.span (Some tr) ~cat:"bench" ~name:w.W.name (fun () ->
              w.W.iterate ~tr:(Some tr) ~collectors:w.W.default_collectors ~seed ~clock)
        in
        (o, gc0, Gc.quick_stat ()))
  in
  Option.iter (fun r -> emit "fail traced iteration: %s" r) (verdict ~expected o);
  let median_of f = median (List.map f samples) in
  (* obs.cost_ratio: run time with this workload's collectors on / off *)
  let flipped, _ =
    timed (w.W.iterate ~tr:None ~collectors:(not w.W.default_collectors) ~seed)
  in
  let usual = median_of (fun s -> s.Clock.run_s) in
  let on_run, off_run =
    if w.W.default_collectors then (usual, flipped.Clock.run_s) else (flipped.Clock.run_s, usual)
  in
  let probes = Probes.run () in
  let chrome = Export.chrome_trace tr.W.obs in
  (match Export.validate_json chrome with
  | Ok () -> ()
  | Error e -> emit "fail chrome trace is not valid JSON: %s" e);
  let base = Filename.concat out_dir w.W.name in
  write_file (base ^ ".trace.json") chrome;
  write_file (base ^ ".folded") (folded_in_us (Export.collapsed_stacks tr.W.obs));
  (* spans are raw host time; scale them like every other time *)
  let span_s cat name = W.span_seconds tr ~cat ~name /. traced.Clock.slowdown in
  let measured =
    [
      ("engine.events", float_of_int traced.Clock.events);
      ("engine.ns_per_event", usual *. 1e9 /. float_of_int (max 1 traced.Clock.events));
      ("core.boot_s", span_s "core" "Cluster.create+boot_all");
      ("msg.fabric_s", span_s "msg" "make_fabric+attach");
      ("obs.collect_s", span_s "obs" "collect");
      ("obs.cost_ratio", on_run /. off_run);
      ("sched.generate_s", span_s "sched" "Workload.generate");
      ("gc.minor_mw", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.promoted_mw", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("sim.cycles", float_of_int o.W.sim_cycles);
      ("bench.trace_overhead", traced.Clock.wall_s /. median_of (fun s -> s.Clock.wall_s));
    ]
    @ List.map (fun p -> ("sched.run_s." ^ p, span_s "sched" ("Service.run." ^ p))) policies
    @ o.W.counts @ probes
  in
  List.iter
    (fun (name, _) ->
      emit "metric %s %.17g" name (Option.value (List.assoc_opt name measured) ~default:0.))
    per_layer

let child (w : W.t) ~seed ~plan ~trace ~out_dir =
  let start = now () in
  let iterate = w.W.iterate ~tr:None ~collectors:w.W.default_collectors ~seed in
  let expected =
    match timed iterate with
    | exception e ->
      emit "fail warm-up raised %s" (Printexc.to_string e);
      exit 3
    | _, warm ->
      let expected = if seed = 1L then golden_digests w.W.name else warm.W.digests in
      (match verdict ~expected warm with
      | Some reason ->
        emit "fail warm-up: %s" reason;
        exit 3
      | None -> ());
      emit "digests %s" (encode_digests warm.W.digests);
      expected
  in
  let warm_s = now () -. start in
  let more =
    match plan with
    | Iters k -> fun i _ -> i < k
    | Share (budget, n) ->
      let share =
        budget /. float_of_int (max 1 (min n (children_fitting budget ~iteration_s:warm_s)))
      in
      fun i last -> i = 0 || now () -. start +. last <= share
  in
  let samples = ref [] in
  let rec loop i last =
    if more i last then begin
      let t0 = now () in
      (match timed iterate with
      | exception e -> emit "fail iteration %d raised %s" i (Printexc.to_string e)
      | s, o -> (
        match verdict ~expected o with
        | Some reason -> emit "fail iteration %d: %s" i reason
        | None ->
          samples := s :: !samples;
          emit "sample %.17g %.17g %.17g %d %.17g" s.Clock.wall_s s.Clock.setup_s
            s.Clock.run_s s.Clock.events s.Clock.slowdown));
      (* the high-water mark after the same work in every child: the
         warm-up and one timed iteration, however many more fit *)
      if i = 0 then emit "rss_mb %.17g" (peak_rss_mb ());
      loop (i + 1) (now () -. t0)
    end
  in
  loop 0 warm_s;
  if trace && !samples <> [] then trace_pass w ~seed ~expected ~samples:!samples ~out_dir

(* ------------------------------------------------------------------ *)
(* Parent side: spawn children, aggregate their reports                 *)

type result = {
  workload : W.t;
  mutable samples : Clock.times list;
  mutable attempted : int;
  mutable failures : string list;
  mutable rss : float list;
  mutable digests : string list;  (** one line per child, in spawn order *)
  mutable layer : (string * float) list;
}

let fresh workload =
  { workload; samples = []; attempted = 0; failures = []; rss = []; digests = []; layer = [] }

let spawn_child (res : result) ~seed ~plan ~trace ~out_dir =
  let args =
    [ "child"; "--workload"; res.workload.W.name; "--seed"; Int64.to_string seed ]
    @ (match plan with
      | Iters k -> [ "--iters"; string_of_int k ]
      | Share (budget, n) ->
        [ "--budget"; Printf.sprintf "%.17g" budget; "--children"; string_of_int n ])
    @ if trace then [ "--trace"; "1"; "--out-dir"; out_dir ] else []
  in
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let failed_before = List.length res.failures in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | t :: "sample" :: [ wall; setup; run; events; slowdown ] when t = tag ->
        res.attempted <- res.attempted + 1;
        res.samples <-
          {
            Clock.wall_s = float_of_string wall;
            setup_s = float_of_string setup;
            run_s = float_of_string run;
            events = int_of_string events;
            slowdown = float_of_string slowdown;
          }
          :: res.samples
      | t :: "fail" :: why when t = tag ->
        res.attempted <- res.attempted + 1;
        res.failures <- String.concat " " why :: res.failures
      | t :: "rss_mb" :: [ mb ] when t = tag -> res.rss <- float_of_string mb :: res.rss
      | t :: "digests" :: ds when t = tag -> res.digests <- res.digests @ [ String.concat " " ds ]
      | t :: "metric" :: [ name; v ] when t = tag ->
        res.layer <- res.layer @ [ (name, float_of_string v) ]
      | _ -> ())
    lines;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ when List.length res.failures > failed_before -> ()
  | _ ->
    res.attempted <- res.attempted + 1;
    res.failures <- "child process died" :: res.failures

(* Every child must have produced the same digests. *)
let cross_check res =
  match res.digests with
  | first :: rest when List.exists (( <> ) first) rest ->
    res.attempted <- res.attempted + 1;
    res.failures <- "digests differ between rounds" :: res.failures
  | _ -> ()

let correct res = res.failures = [] && res.samples <> []

type summary = { value : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let a = Array.of_list xs in
  if a = [||] then { value = 0.; q1 = 0.; q3 = 0.; n = 0 }
  else
    {
      value = Stats.percentile a 0.5;
      q1 = Stats.percentile a 0.25;
      q3 = Stats.percentile a 0.75;
      n = Array.length a;
    }

(* Medians over every timed iteration; peak RSS is the largest child's. *)
let metric_summary res name =
  let of_samples f = summarize (List.map f res.samples) in
  match name with
  | "wall_s" -> of_samples (fun s -> s.Clock.wall_s)
  | "setup_s" -> of_samples (fun s -> s.Clock.setup_s)
  | "events_per_s" -> of_samples (fun s -> float_of_int s.Clock.events /. s.Clock.run_s)
  | "peak_rss_mb" ->
    let s = summarize res.rss in
    { s with value = List.fold_left Float.max 0. res.rss }
  | "error_rate" ->
    let failed = List.length res.failures in
    let r = if res.attempted = 0 then 1. else float_of_int failed /. float_of_int res.attempted in
    { value = r; q1 = r; q3 = r; n = res.attempted }
  | other -> invalid_arg other

let host_slowdown res = (summarize (List.map (fun s -> s.Clock.slowdown) res.samples)).value

(* wall_s as the host clock read it, before normalisation *)
let raw_wall res = summarize (List.map (fun s -> s.Clock.wall_s *. s.Clock.slowdown) res.samples)

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let better_name = function Lower -> "lower" | Higher -> "higher"

let summary_json s =
  [
    ("value", Json.Num s.value);
    ("q1", Json.Num s.q1);
    ("q3", Json.Num s.q3);
    ("n", Json.Num (float_of_int s.n));
  ]

let run_json ~seed ~rounds results =
  Json.Obj
    [
      ("schema", Json.Str "bg-perf-run-v1");
      ("seed", Json.Num (Int64.to_float seed));
      ("rounds", Json.Num (float_of_int rounds));
      ( "workloads",
        Json.Arr
          (List.map
             (fun res ->
               Json.Obj
                 [
                   ("name", Json.Str res.workload.W.name);
                   ("attempted", Json.Num (float_of_int res.attempted));
                   ("failed", Json.Num (float_of_int (List.length res.failures)));
                   ("failures", Json.Arr (List.rev_map (fun f -> Json.Str f) res.failures));
                   ("host_slowdown", Json.Num (host_slowdown res));
                   ("raw_wall_s", Json.Obj (summary_json (raw_wall res)));
                   ( "metrics",
                     Json.Obj
                       (List.map
                          (fun m ->
                            ( m.name,
                              Json.Obj
                                ([
                                   ("unit", Json.Str m.unit_);
                                   ("better", Json.Str (better_name m.better));
                                   ("bound", Json.Num m.bound);
                                 ]
                                @ summary_json (metric_summary res m.name)) ))
                          end_to_end) );
                   ( "layers",
                     Json.Obj
                       (List.map
                          (fun (name, v) ->
                            ( name,
                              Json.Obj
                                [
                                  ("unit", Json.Str (List.assoc name per_layer));
                                  ("value", Json.Num v);
                                ] ))
                          res.layer) );
                 ])
             results) );
    ]

let print_table results =
  List.iter
    (fun res ->
      Printf.printf "\n%s  (%d attempted, %d failed; host slowdown %.2fx)\n" res.workload.W.name
        res.attempted (List.length res.failures) (host_slowdown res);
      List.iter (fun f -> Printf.printf "  FAIL %s\n" f) (List.rev res.failures);
      let line name unit_ s =
        Printf.printf "  %-14s %-6s %14.6g  [q1 %.6g, q3 %.6g]  n=%d\n" name unit_ s.value s.q1
          s.q3 s.n
      in
      if res.samples <> [] then begin
        List.iter (fun m -> line m.name m.unit_ (metric_summary res m.name)) end_to_end;
        line "raw wall_s" "s" (raw_wall res)
      end;
      List.iter
        (fun (name, v) ->
          Printf.printf "  %-26s %-7s %.6g\n" name (List.assoc name per_layer) v)
        res.layer)
    results

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

let write_json path j =
  let s = Json.to_string j in
  (match Export.validate_json s with
  | Ok () -> ()
  | Error e -> die "internal error: emitted JSON is invalid: %s" e);
  write_file path (s ^ "\n")

let run_rounds ~seed ~rounds ~k ~trace ~out_dir workloads =
  let results = List.map fresh workloads in
  for _ = 1 to rounds do
    List.iter
      (fun res ->
        let plan = Iters (Option.value k ~default:res.workload.W.k) in
        spawn_child res ~seed ~plan ~trace ~out_dir)
      results
  done;
  List.iter cross_check results;
  results

let cmd_run ~seed ~trace ~out_dir ~out =
  (* the traced pass: one child each, a few untraced iterations to
     compare against, then one traced iteration *)
  let rounds, k = if trace then (1, Some 3) else (5, None) in
  let results = run_rounds ~seed ~rounds ~k ~trace ~out_dir W.all in
  print_table results;
  let out =
    Option.value out
      ~default:(Filename.concat out_dir (if trace then "trace.json" else "run.json"))
  in
  write_json out (run_json ~seed ~rounds results);
  Printf.printf "\nwrote %s\n" out;
  if trace then Printf.printf "traces in %s/<workload>.trace.json and .folded\n" out_dir;
  if not (List.for_all correct results) then exit 1

let load path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

let cmd_compare a b =
  let ja = load a and jb = load b in
  let workloads j =
    match Json.member "workloads" j with
    | Some (Json.Arr l) ->
      List.filter_map
        (fun w -> match Json.member "name" w with Some (Json.Str n) -> Some (n, w) | _ -> None)
        l
    | _ -> die "no workloads in report"
  in
  let wb = workloads jb in
  let regressed = ref false in
  Printf.printf "%-10s %-13s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric" "A" "A [q1,q3]"
    "B" "B [q1,q3]" "delta" "bound" "status";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name wb with
      | None ->
        regressed := true;
        Printf.printf "%-10s missing from %s: regressed\n" name b
      | Some wbj ->
        List.iter
          (fun m ->
            let get w field =
              match
                Option.bind (Option.bind (Json.member "metrics" w) (Json.member m.name))
                  (Json.member field)
              with
              | Some (Json.Num x) -> x
              | _ -> die "%s: %s.%s missing" name m.name field
            in
            let va = get wa "value" and vb = get wbj "value" in
            let spread w =
              let v = get w "value" in
              if v = 0. then 0. else (get w "q3" -. get w "q1") /. Float.abs v
            in
            let delta = if va = 0. then 0. else (vb -. va) /. Float.abs va in
            let worse = match m.better with Lower -> delta | Higher -> -.delta in
            let status =
              if m.name = "error_rate" then if vb > va then "regressed" else "ok"
              else if Float.max (spread wa) (spread wbj) > m.bound then "unresolved"
              else if worse > m.bound then "regressed"
              else "ok"
            in
            if status = "regressed" then regressed := true;
            Printf.printf "%-10s %-13s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n" name m.name
              va
              (Printf.sprintf "[%.6g, %.6g]" (get wa "q1") (get wa "q3"))
              vb
              (Printf.sprintf "[%.6g, %.6g]" (get wbj "q1") (get wbj "q3"))
              (100. *. delta) (100. *. m.bound) status)
          end_to_end)
    (workloads ja);
  if !regressed then exit 1

let cmd_probes () =
  List.iter2
    (fun (name, unit_, _, _) (_, v) -> Printf.printf "%-24s %12.1f %s\n%!" name v unit_)
    Probes.all (Probes.run ())

let cmd_goldens () =
  let seed = 1L in
  print_endline "(* Golden digests for seed 1: (workload, output, digest).";
  print_endline "   Regenerate: dune exec perf/perf.exe -- goldens > perf/goldens.ml *)";
  print_endline "";
  print_endline "let table =";
  print_endline "  [";
  List.iter
    (fun (w : W.t) ->
      let _, o = timed (w.W.iterate ~tr:None ~collectors:w.W.default_collectors ~seed) in
      Option.iter (fun r -> die "%s: invariant failed: %s" w.W.name r) o.W.invariant;
      List.iter (fun (k, v) -> Printf.printf "    (%S, %S, %S);\n" w.W.name k v) o.W.digests)
    W.all;
  print_endline "  ]"

(* Starts [sched_tool --seed 1 --quiet]; the result waits for it and
   returns the digests it printed, keyed as sched_mix keys them:
   "fcfs digest: slo=.. sim=.. sched=.." gives fcfs.slo and so on. *)
let sched_tool_digests sched_tool =
  let ic = Unix.open_process_args_in sched_tool [| sched_tool; "--seed"; "1"; "--quiet" |] in
  fun () ->
    let lines = String.split_on_char '\n' (In_channel.input_all ic) in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> die "%s --seed 1 failed" sched_tool);
    List.concat_map
      (fun line ->
        Scanf.sscanf_opt line "%s digest: slo=%s sim=%s sched=%s%!" (fun p slo sim sched ->
            [ (p ^ ".slo", slo); (p ^ ".sim", sim); (p ^ ".sched", sched) ])
        |> Option.value ~default:[])
      lines

(* At seed 1: one round, one iteration of the three fast workloads in
   children, one in-process iteration of sched_mix, each against the
   goldens; the goldens' sched_mix lines against what [sched_tool]
   prints; and the report must be valid JSON that reads back. Silent on
   success. *)
let cmd_selftest ~out_dir ~sched_tool =
  let printed = sched_tool_digests sched_tool in
  let sched_mix = Option.get (W.find "sched_mix") in
  let fast = List.filter (fun w -> w != sched_mix) W.all in
  let results = run_rounds ~seed:1L ~rounds:1 ~k:(Some 1) ~trace:false ~out_dir fast in
  let expected = List.sort compare (golden_digests "sched_mix") in
  let sched_problems =
    (match
       timed (sched_mix.W.iterate ~tr:None ~collectors:sched_mix.W.default_collectors ~seed:1L)
     with
    | exception e -> [ "raised " ^ Printexc.to_string e ]
    | _, o -> Option.to_list (verdict ~expected o))
    @
    let printed = List.sort compare (printed ()) in
    if printed = expected then []
    else [ "goldens differ from sched_tool --seed 1: " ^ encode_digests printed ]
  in
  let problems =
    List.concat_map
      (fun res ->
        (if res.samples = [] then [ res.workload.W.name ^ ": no samples" ] else [])
        @ List.map (fun f -> res.workload.W.name ^ ": " ^ f) res.failures)
      results
    @ List.map (fun p -> "sched_mix: " ^ p) sched_problems
  in
  let json = Json.to_string (run_json ~seed:1L ~rounds:1 results) in
  let problems =
    problems
    @ (match Export.validate_json json with Ok () -> [] | Error e -> [ "invalid JSON: " ^ e ])
    @
    match Json.parse json with
    | Ok j when Json.to_string j = json -> []
    | Ok _ -> [ "JSON does not read back identically" ]
    | Error e -> [ "JSON does not parse: " ^ e ]
  in
  if problems <> [] then begin
    List.iter (fun p -> prerr_endline ("perf selftest: " ^ p)) problems;
    exit 1
  end

(* The single-workload report: the last stdout line is one JSON object. *)
let cmd_single (w : W.t) ~seed ~seconds ~trace ~out_dir =
  let res = fresh w in
  let metrics =
    if trace then begin
      spawn_child res ~seed ~plan:(Iters 3) ~trace:true ~out_dir;
      List.map
        (fun (name, unit_) ->
          let v = Option.value (List.assoc_opt name res.layer) ~default:0. in
          (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
        per_layer
    end
    else begin
      (* Up to 5 children share the [seconds], warm-ups included; when
         iterations are long, fewer children run and each runs longer. *)
      let deadline = now () +. seconds in
      let rec spawn n =
        if n >= 1 then begin
          let t0 = now () and attempted = res.attempted in
          spawn_child res ~seed ~plan:(Share (deadline -. t0, n)) ~trace:false ~out_dir;
          let iteration_s = (now () -. t0) /. float_of_int (res.attempted - attempted + 1) in
          spawn (min (n - 1) (children_fitting (deadline -. now ()) ~iteration_s))
        end
      in
      spawn 5;
      cross_check res;
      List.filter_map
        (fun m ->
          if m.name = "error_rate" then None
          else
            let s = metric_summary res m.name in
            Some (m.name, Json.Obj [ ("value", Json.Num s.value); ("unit", Json.Str m.unit_) ]))
        end_to_end
    end
  in
  List.iter (fun f -> prerr_endline ("perf: " ^ w.W.name ^ ": " ^ f)) (List.rev res.failures);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct res));
            ("attempted", Json.Num (float_of_int (max 1 res.attempted)));
            ("failed", Json.Num (float_of_int (List.length res.failures)));
            ("metrics", Json.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

(* "--flag value" pairs; a flag with no value (end of line, or another
   flag next) reads as "1". *)
let parse_args args =
  let rec go pos flags = function
    | [] -> (List.rev pos, flags)
    | f :: rest when String.starts_with ~prefix:"--" f -> (
      match rest with
      | v :: rest' when not (String.starts_with ~prefix:"--" v) -> go pos ((f, v) :: flags) rest'
      | _ -> go pos ((f, "1") :: flags) rest)
    | p :: rest -> go (p :: pos) flags rest
  in
  go [] [] args

let () =
  let pos, flags = parse_args (List.tl (Array.to_list Sys.argv)) in
  let allowed =
    [
      "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--out-dir"; "--iters"; "--budget";
      "--children";
    ]
  in
  List.iter (fun (f, _) -> if not (List.mem f allowed) then die "unknown flag %s" f) flags;
  let flag f = List.assoc_opt f flags in
  let num f conv default =
    match flag f with
    | None -> default
    | Some v -> ( match conv v with Some x -> x | None -> die "bad value for %s: %s" f v)
  in
  let seed = num "--seed" Int64.of_string_opt 1L in
  let trace = num "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) false in
  let out_dir = Option.value (flag "--out-dir") ~default:"_perf" in
  let workload name =
    match W.find name with
    | Some w -> w
    | None ->
      die "unknown workload %s (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.W.name) W.all))
  in
  let usage () =
    die "usage: perf.exe run|compare A B|probes|goldens|selftest SCHED_TOOL, or --workload W ..."
  in
  match pos with
  | [] -> (
    match flag "--workload" with
    | None -> usage ()
    | Some name ->
      let seconds = num "--seconds" float_of_string_opt 10. in
      if seconds <= 0. then die "--seconds must be positive";
      cmd_single (workload name) ~seed ~seconds ~trace ~out_dir)
  | [ "child" ] ->
    let w = workload (Option.value (flag "--workload") ~default:"") in
    let plan =
      match flag "--budget" with
      | Some _ ->
        Share (num "--budget" float_of_string_opt 1., num "--children" int_of_string_opt 1)
      | None -> Iters (num "--iters" int_of_string_opt w.W.k)
    in
    child w ~seed ~plan ~trace ~out_dir
  | [ "run" ] -> cmd_run ~seed ~trace ~out_dir ~out:(flag "--out")
  | [ "compare"; a; b ] -> cmd_compare a b
  | [ "probes" ] -> cmd_probes ()
  | [ "goldens" ] -> cmd_goldens ()
  | [ "selftest"; sched_tool ] -> cmd_selftest ~out_dir ~sched_tool
  | _ -> usage ()
