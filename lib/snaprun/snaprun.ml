(* Scenario registry and divergence bisection on top of lib/snap.

   A scenario is a named, parameterised machine construction: given a
   seed and a knob list it builds the whole installation (machine +
   kernel nodes), boots it, launches the workload, and returns the
   running instance plus a thunk producing the kernel-layer snapshot
   regions. Restore is replay — the builder re-runs deterministically,
   so pumping a fresh instance to a snapshot's event cursor reproduces
   its state byte for byte (Machine.restore verifies exactly that).

   Bisection exploits the same property: every digest in the machine
   (trace, span ring, causal graph) is cumulative, so once two runs'
   snapshots differ at cursor N they differ at every cursor >= N.
   Divergence is monotone in the event count and binary search over
   restore points is sound. *)

open Bg_engine
open Bg_kabi

type instance = {
  machine : Machine.t;
  extra : unit -> Bg_snap.Snap.region list;
}

type scenario = {
  scn_name : string;
  scn_doc : string;
  build : seed:int64 -> knobs:(string * string) list -> instance;
}

(* --- knobs ------------------------------------------------------------ *)

let knob_int knobs key default =
  match List.assoc_opt key knobs with
  | Some v -> (try int_of_string v with _ -> default)
  | None -> default

let knob_bool knobs key default =
  match List.assoc_opt key knobs with
  | Some v -> v = "1" || v = "true" || v = "on"
  | None -> default

let parse_knob s =
  match String.index_opt s '=' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "1")

(* --- scenario plumbing ------------------------------------------------ *)

let region layer fill =
  let b = Buffer.create 1024 in
  fill b;
  { Bg_snap.Snap.layer; layer_version = 1; payload = Buffer.to_bytes b }

let enable_observability (m : Machine.t) =
  Bg_obs.Obs.set_enabled m.Machine.obs true;
  Bg_obs.Accounting.set_enabled m.Machine.acct true;
  Bg_obs.Causal.set_enabled m.Machine.causal true

(* The glitch probe event is scheduled under BOTH knob settings so the
   queue shape (and with it the engine.sim region) is identical until
   the probe fires; the knob only decides whether the fired event acts.
   If only one side scheduled it, the two runs' event sequence numbers
   would differ from construction and bisection would pin the
   divergence to the very first capture instead of the glitch. *)
let glitch_trace_label = Trace.label "snap.glitch"
let glitch_label = Bg_obs.Obs.label ~cat:"snap" ~name:"glitch"

let schedule_glitch (m : Machine.t) ~glitch ~glitch_cycle =
  let sim = m.Machine.sim in
  ignore
    (Sim.schedule_at sim glitch_cycle (fun () ->
         if glitch then begin
           Sim.emit sim ~label:glitch_trace_label ~value:1;
           Bg_obs.Obs.span_record_l m.Machine.obs glitch_label ~rank:0 ~core:0
             ~start:(Sim.now sim) ~finish:(Sim.now sim);
           ignore
             (Bg_obs.Causal.mint_l m.Machine.causal ~chain:true glitch_label ~rank:0 ~core:0
                ~now:(Sim.now sim))
         end))

(* --- scenarios -------------------------------------------------------- *)

(* CNK: two compute nodes function-shipping pwrites to one CIOD, with
   compute quanta between writes. Exercises chips, DMA-backed CIO
   transport, the shared filesystem and the span/causal layers. *)
let build_cnk_io ~seed ~knobs =
  let glitch = knob_bool knobs "glitch" false in
  (* defaults put the probe mid-job: CNK boot ends ~2.2M cycles in and
     the 12-iteration write loop drains just under 3M *)
  let glitch_cycle = knob_int knobs "glitch_cycle" 2_500_000 in
  let iters = knob_int knobs "iters" 12 in
  let dims =
    match knob_int knobs "nodes" 2 with
    | 1 -> (1, 1, 1)
    | 4 -> (2, 2, 1)
    | 8 -> (2, 2, 2)
    | n -> (max 1 (min n 8), 1, 1)
  in
  let cluster = Cnk.Cluster.create ~seed ~dims () in
  let machine = Cnk.Cluster.machine cluster in
  enable_observability machine;
  Cnk.Cluster.boot_all cluster;
  let image =
    Image.executable ~name:"snapio" (fun () ->
        let rank = Bg_rt.Libc.rank () in
        let fd =
          Bg_rt.Libc.openf ~flags:Sysreq.o_create_trunc ~mode:0o644
            (Printf.sprintf "/out.%d" rank)
        in
        for i = 0 to iters - 1 do
          Coro.consume 40_000;
          ignore
            (Bg_rt.Libc.pwrite fd
               (Bytes.make 64 (Char.chr (65 + (i mod 26))))
               ~offset:(i * 64))
        done;
        Bg_rt.Libc.close fd)
  in
  Cnk.Cluster.launch_all cluster (Job.create ~name:"snapio" image);
  schedule_glitch machine ~glitch ~glitch_cycle;
  {
    machine;
    extra =
      (fun () ->
        [
          region "cnk.nodes" (fun b ->
              Array.iter (fun n -> Cnk.Node.capture n b) (Cnk.Cluster.nodes cluster));
          region "cio.ciods" (fun b ->
              for io = 0 to Cnk.Cluster.io_node_count cluster - 1 do
                Bg_cio.Ciod.capture (Cnk.Cluster.ciod cluster ~io_node:io) b
              done);
        ]);
  }

(* FWK: one Linux-like node with timer ticks, running fixed work quanta
   (an FWQ slice). Exercises the buddy allocator, demand paging and the
   noise model's RNG position. *)
let build_fwk_noise ~seed ~knobs =
  let glitch = knob_bool knobs "glitch" false in
  (* stripped FWK boot is 2.6M cycles; 16 quanta run it to ~4.2M *)
  let glitch_cycle = knob_int knobs "glitch_cycle" 3_200_000 in
  let quanta = knob_int knobs "quanta" 16 in
  let machine = Machine.create ~seed ~dims:(1, 1, 1) () in
  enable_observability machine;
  let node =
    Bg_fwk.Node.create ~noise_seed:(Int64.add seed 17L)
      ~daemons:Bg_fwk.Noise_model.quiet_daemon_set machine ~rank:0 ~stripped:true ()
  in
  Bg_fwk.Node.boot node ~on_ready:(fun () ->
      match
        Bg_fwk.Node.launch node
          (Job.create ~name:"snapfwq"
             (Image.executable ~name:"snapfwq" (fun () ->
                  for _ = 1 to quanta do
                    Coro.consume 100_000
                  done)))
      with
      | Ok () -> ()
      | Error e -> failwith ("snaprun: fwk launch failed: " ^ e));
  schedule_glitch machine ~glitch ~glitch_cycle;
  {
    machine;
    extra = (fun () -> [ region "fwk.node" (fun b -> Bg_fwk.Node.capture node b) ]);
  }

let scenarios =
  [
    {
      scn_name = "cnk_io";
      scn_doc =
        "CNK nodes function-shipping pwrites to one CIOD (knobs: glitch, \
         glitch_cycle, iters, nodes)";
      build = build_cnk_io;
    };
    {
      scn_name = "fwk_noise";
      scn_doc =
        "one FWK node running FWQ quanta under timer ticks (knobs: glitch, \
         glitch_cycle, quanta)";
      build = build_fwk_noise;
    };
  ]

let find name = List.find_opt (fun s -> s.scn_name = name) scenarios

(* --- running ---------------------------------------------------------- *)

let run_to inst ~events =
  let sim = inst.machine.Machine.sim in
  let rec go () =
    if Sim.events_fired sim >= events then `Reached
    else if Sim.step sim then go ()
    else `Drained (Sim.events_fired sim)
  in
  go ()

let run_until_quiet inst =
  let sim = inst.machine.Machine.sim in
  while Sim.step sim do
    ()
  done;
  Sim.events_fired sim

let snapshot_of scn inst ~knobs =
  Machine.snapshot inst.machine ~scenario:scn.scn_name ~knobs ~extra:(inst.extra ()) ()

let snapshot_at scn ~seed ~knobs ~events =
  let inst = scn.build ~seed ~knobs in
  let outcome = run_to inst ~events in
  (inst, snapshot_of scn inst ~knobs, outcome)

(* Restore = rebuild + Machine.restore (replay to cursor + byte verify). *)
let restore scn (file : Bg_snap.Snap.file) =
  match find file.Bg_snap.Snap.scenario with
  | None -> Error ("unknown scenario " ^ file.Bg_snap.Snap.scenario)
  | Some s when s.scn_name <> scn.scn_name ->
    Error ("snapshot is for scenario " ^ s.scn_name)
  | Some _ -> (
    let inst =
      scn.build ~seed:file.Bg_snap.Snap.seed ~knobs:file.Bg_snap.Snap.knobs
    in
    match Machine.restore inst.machine ~extra:inst.extra file with
    | Ok () -> Ok inst
    | Error e -> Error (Machine.restore_error_to_string e))

(* One run, capturing in flight at every threshold it reaches, plus a
   final capture when the queue drains. Single boot. *)
let run_with_snapshots scn ~seed ~knobs ~thresholds =
  let inst = scn.build ~seed ~knobs in
  let snaps = ref [] in
  List.iter
    (fun t ->
      match run_to inst ~events:t with
      | `Reached -> snaps := (t, snapshot_of scn inst ~knobs) :: !snaps
      | `Drained _ -> ())
    (List.sort_uniq compare thresholds);
  let final = run_until_quiet inst in
  (inst, List.rev !snaps, (final, snapshot_of scn inst ~knobs))

(* --- digests (for the restore-continuation invariant) ----------------- *)

type digests = {
  dg_trace : int64;
  dg_spans : int64;
  dg_causal : int64;
  dg_clock : int;
  dg_fired : int;
}

let digests inst =
  let m = inst.machine in
  {
    dg_trace = Trace.digest (Sim.trace m.Machine.sim);
    dg_spans = Bg_obs.Obs.digest m.Machine.obs;
    dg_causal = Bg_obs.Causal.digest m.Machine.causal;
    dg_clock = Sim.now m.Machine.sim;
    dg_fired = Sim.events_fired m.Machine.sim;
  }

let pp_digests ppf d =
  Format.fprintf ppf "trace=%Lx spans=%Lx causal=%Lx clock=%d events=%d" d.dg_trace
    d.dg_spans d.dg_causal d.dg_clock d.dg_fired

(* --- bisection -------------------------------------------------------- *)

type divergence = {
  div_event : int;  (** first event count at which the runs differ *)
  div_region : Bg_snap.Snap.mismatch;
  div_span : (string * Bg_obs.Obs.span) option;
      (** which side ("a"/"b") has the extra/first-different span *)
  div_causal : string list;  (** pretty-printed causal neighborhood *)
  div_probes : int;  (** restore probes the binary search used *)
  div_captures : int;  (** captures taken during bracketing *)
}

let span_key (s : Bg_obs.Obs.span) =
  (s.Bg_obs.Obs.seq, s.cat, s.name, s.rank, s.core, s.start, s.finish, s.depth)

(* First span present in one run's ring but not the other's at the
   divergent cursor. Spans are compared as whole records keyed by
   completion order. *)
let offending_span a b =
  let spans m = Bg_obs.Obs.spans m.machine.Machine.obs in
  let sa = spans a and sb = spans b in
  let keys l = List.map span_key l in
  let ka = keys sa and kb = keys sb in
  let only_in tag l other =
    match List.find_opt (fun s -> not (List.mem (span_key s) other)) l with
    | Some s -> Some (tag, s)
    | None -> None
  in
  match only_in "b" sb ka with Some r -> Some r | None -> only_in "a" sa kb

let node_line (g : Bg_obs.Causal.t) (n : Bg_obs.Causal.node) =
  let edge_desc (e : Bg_obs.Causal.edge) =
    let name c =
      match Bg_obs.Causal.find g c with
      | Some m -> Printf.sprintf "%s.%s" m.Bg_obs.Causal.cat m.Bg_obs.Causal.name
      | None -> Printf.sprintf "#%d" c
    in
    Printf.sprintf "%s %s->%s"
      (Bg_obs.Causal.kind_name e.Bg_obs.Causal.kind)
      (name e.Bg_obs.Causal.src) (name e.Bg_obs.Causal.dst)
  in
  let incident =
    List.filter
      (fun (e : Bg_obs.Causal.edge) ->
        e.Bg_obs.Causal.src = n.Bg_obs.Causal.id || e.Bg_obs.Causal.dst = n.Bg_obs.Causal.id)
      (Bg_obs.Causal.edges g)
  in
  Printf.sprintf "%s.%s rank=%d core=%d @%d%s" n.Bg_obs.Causal.cat n.Bg_obs.Causal.name
    n.Bg_obs.Causal.rank n.Bg_obs.Causal.core n.Bg_obs.Causal.at
    (match incident with
    | [] -> ""
    | es -> "  [" ^ String.concat "; " (List.map edge_desc es) ^ "]")

(* Causal nodes minted by one side and not the other at the divergent
   cursor, with their incident edges — the neighborhood of the first
   divergent action. *)
let causal_neighborhood a b =
  let strip (n : Bg_obs.Causal.node) =
    (n.Bg_obs.Causal.cat, n.Bg_obs.Causal.name, n.rank, n.core, n.at)
  in
  let ga = a.machine.Machine.causal and gb = b.machine.Machine.causal in
  let na = Bg_obs.Causal.nodes ga and nb = Bg_obs.Causal.nodes gb in
  let ka = List.map strip na and kb = List.map strip nb in
  let extra tag g l other =
    List.filter (fun n -> not (List.mem (strip n) other)) l
    |> List.map (fun n -> Printf.sprintf "only in %s: %s" tag (node_line g n))
  in
  extra "b" gb nb ka @ extra "a" ga na kb

let geometric ~start ~max_events =
  let rec go acc t =
    if t >= max_events then List.rev (max_events :: acc) else go (t :: acc) (t * 2)
  in
  go [] start

let bisect scn ~seed ~knobs_a ~knobs_b ?(start = 1024) ?(max_events = 8_000_000)
    ?(log = fun _ -> ()) () =
  let captures = ref 0 and probes = ref 0 in
  (* Phase 1: one full run per knob set, capturing at a geometric event
     schedule in flight (single boot each). *)
  let thresholds = geometric ~start ~max_events in
  let _, snaps_a, (final_a, last_a) =
    run_with_snapshots scn ~seed ~knobs:knobs_a ~thresholds
  in
  let _, snaps_b, (final_b, last_b) =
    run_with_snapshots scn ~seed ~knobs:knobs_b ~thresholds
  in
  captures := List.length snaps_a + List.length snaps_b + 2;
  (* Bracket the first divergent capture: lo equal, hi divergent. *)
  let rec bracket lo = function
    | (ta, sa) :: rest_a, (tb, sb) :: rest_b when ta = tb ->
      if Bg_snap.Snap.diff sa sb <> None then Some (lo, ta)
      else bracket ta (rest_a, rest_b)
    | _ ->
      (* thresholds exhausted (or one run drained early): compare the
         final states. *)
      if final_a <> final_b then Some (lo, max final_a final_b)
      else if Bg_snap.Snap.diff last_a last_b <> None then Some (lo, final_a)
      else None
  in
  match bracket 0 (snaps_a, snaps_b) with
  | None -> Error "runs are identical: no divergence up to queue drain"
  | Some (lo, hi) ->
    log (Printf.sprintf "bracketed divergence in (%d, %d]" lo hi);
    (* Phase 2: binary search over restore points. Each probe replays
       both knob sets to the midpoint cursor and compares captures. *)
    let capture_pair events =
      let ia = scn.build ~seed ~knobs:knobs_a in
      ignore (run_to ia ~events);
      let ib = scn.build ~seed ~knobs:knobs_b in
      ignore (run_to ib ~events);
      (ia, ib, Bg_snap.Snap.diff (snapshot_of scn ia ~knobs:knobs_a)
                 (snapshot_of scn ib ~knobs:knobs_b))
    in
    let rec search lo hi =
      (* invariant: equal at lo, divergent at hi *)
      if hi - lo <= 1 then hi
      else begin
        let mid = lo + ((hi - lo) / 2) in
        incr probes;
        let _, _, d = capture_pair mid in
        log
          (Printf.sprintf "probe @%d: %s" mid
             (match d with
             | Some m -> "divergent (" ^ m.Bg_snap.Snap.m_layer ^ ")"
             | None -> "equal"));
        match d with Some _ -> search lo mid | None -> search mid hi
      end
    in
    let first = search lo hi in
    let ia, ib, d = capture_pair first in
    let div_region =
      match d with
      | Some m -> m
      | None -> { Bg_snap.Snap.m_layer = "<none>"; m_offset = 0 }
    in
    Ok
      {
        div_event = first;
        div_region;
        div_span = offending_span ia ib;
        div_causal = causal_neighborhood ia ib;
        div_probes = !probes;
        div_captures = !captures;
      }

let report_lines d =
  let span_line =
    match d.div_span with
    | Some (tag, s) ->
      Printf.sprintf "offending span (only in %s): %s.%s rank=%d core=%d [%d,%d] seq=%d"
        tag s.Bg_obs.Obs.cat s.Bg_obs.Obs.name s.Bg_obs.Obs.rank s.Bg_obs.Obs.core
        s.Bg_obs.Obs.start s.Bg_obs.Obs.finish s.Bg_obs.Obs.seq
    | None -> "offending span: none completed yet at the divergent cursor"
  in
  [
    Printf.sprintf "first divergent event: %d" d.div_event;
    Printf.sprintf "diverging region: %s at byte %d" d.div_region.Bg_snap.Snap.m_layer
      d.div_region.Bg_snap.Snap.m_offset;
    span_line;
  ]
  @ (match d.div_causal with
    | [] -> [ "causal neighborhood: empty" ]
    | ls -> "causal neighborhood:" :: List.map (fun l -> "  " ^ l) ls)
  @ [
      Printf.sprintf "cost: %d bracketing captures, %d binary-search probes"
        d.div_captures d.div_probes;
    ]
