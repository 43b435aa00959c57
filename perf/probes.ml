(* Micro-probes: one hot operation per layer, timed in isolation.

   Each probe grows its batch until one batch runs at least 100 ms,
   then times five batches and reports the median cost per call. The
   order of [all] is the order every report prints them in. *)

open Bg_engine
open Bg_kabi
module Obs = Bg_obs.Obs

let now = Unix.gettimeofday

let batch_seconds f n =
  let t0 = now () in
  for _ = 1 to n do
    f ()
  done;
  now () -. t0

(* Median nanoseconds per call of [f]. *)
let measure f =
  let rec size n = if batch_seconds f n >= 0.1 then n else size (n * 2) in
  let n = size 1 in
  let per_call = Array.init 5 (fun _ -> batch_seconds f n *. 1e9 /. float_of_int n) in
  Stats.percentile per_call 0.5

(* One add+pop pair on a queue held at [depth] live events: pop the
   earliest, schedule a successor a pseudo-random distance after it. *)
let queue_pair depth =
  let q = Event_queue.create () in
  for i = 1 to depth do
    ignore (Event_queue.add q ~time:(i * 7919 mod 1000) ())
  done;
  fun () ->
    match Event_queue.pop q with
    | Some (t, ()) -> ignore (Event_queue.add q ~time:(t + 1 + (t * 7919 mod 1000)) ())
    | None -> assert false

let fwq_image () =
  let entry, _ = Bg_apps.Fwq.program ~samples:25 ~threads:4 () in
  Job.create ~name:"f" (Image.executable ~name:"f" entry)

(* A whole 100-quantum FWQ job on a fresh one-node CNK machine. *)
let cnk_job () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  Cnk.Cluster.run_job cluster (fwq_image ())

(* The same job on a fresh FWK node with its default daemon set. *)
let fwk_job () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  let node = Bg_fwk.Node.create ~noise_seed:42L machine ~rank:0 ~stripped:true () in
  Bg_fwk.Node.boot node ~on_ready:(fun () ->
      match Bg_fwk.Node.launch node (fwq_image ()) with Ok () -> () | Error e -> failwith e);
  ignore (Sim.run machine.Machine.sim)

let mem4k () =
  let m = Bg_hw.Memory.create ~size:(1 lsl 20) in
  let b = Bytes.make 4096 'x' in
  fun () ->
    Bg_hw.Memory.write m ~addr:8192 b;
    ignore (Bg_hw.Memory.read m ~addr:8192 ~len:4096)

let proto_pwrite () =
  let hdr = { Bg_cio.Proto.rank = 3; pid = 1; tid = 9 } in
  let req = Sysreq.Pwrite { fd = 4; data = Bytes.make 512 'd'; offset = 4096 } in
  fun () ->
    match Bg_cio.Proto.decode_request (Bg_cio.Proto.encode_request hdr req) with
    | Ok _ -> ()
    | Error e -> failwith (Bg_cio.Proto.error_message e)

let obs_incr () =
  let obs = Obs.create ~enabled:true () in
  fun () -> Obs.incr obs ~rank:3 ~core:1 ~subsystem:"perf" ~name:"probe" ()

let obs_span () =
  let obs = Obs.create ~enabled:true () in
  let t = ref 0 in
  fun () ->
    let h = Obs.span_begin obs ~cat:"perf" ~name:"probe" ~rank:3 ~core:1 ~now:!t in
    incr t;
    Obs.span_end obs h ~now:!t

(* (metric name, unit, ns per unit, probe maker) *)
let all =
  [
    ("engine.queue_ns.d16", "ns", 1., fun () -> queue_pair 16);
    ("engine.queue_ns.d4096", "ns", 1., fun () -> queue_pair 4096);
    ("core.job_us", "us", 1e3, fun () -> cnk_job);
    ("fwk.job_us", "us", 1e3, fun () -> fwk_job);
    ("hw.mem4k_ns", "ns", 1., mem4k);
    ("cio.proto_ns", "ns", 1., proto_pwrite);
    ("obs.incr_ns", "ns", 1., obs_incr);
    ("obs.span_ns", "ns", 1., obs_span);
  ]

let run () = List.map (fun (name, _, div, make) -> (name, measure (make ()) /. div)) all
