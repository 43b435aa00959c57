(* --- RAS events ------------------------------------------------------- *)

type fault =
  | L1_parity of { rank : int; core : int }
  | Node_death of { rank : int }
  | Link_failure of { rank : int; dir : int }
  | Link_repair of { rank : int; dir : int }
  | Ciod_crash of { io_node : int; fatal : bool }
  | Ciod_restart of { io_node : int }

type death_cause = Crashed of string | Unhandled_signal of int | Segv of string
type note_from = Kernel | Sched | Heal

type ras_event =
  | Fault of fault
  | Alert of Bg_obs.Health.alert
  | Thread_death of { tid : int; cause : death_cause }
  | Note of { from : note_from; severity : Bg_obs.Rasdb.severity; text : string }

let fault_rank = function
  | L1_parity { rank; _ } | Node_death { rank } | Link_failure { rank; _ }
  | Link_repair { rank; _ } ->
    rank
  | Ciod_crash { io_node; _ } | Ciod_restart { io_node } -> io_node

let fault_severity = function
  | L1_parity _ -> Bg_obs.Rasdb.Warn
  | Node_death _ | Link_failure _ | Ciod_crash _ -> Bg_obs.Rasdb.Error
  | Link_repair _ | Ciod_restart _ -> Bg_obs.Rasdb.Info

(* The one place a RAS event becomes text: the record's severity,
   component and message. A fault's component is the word after
   "FAULT "; a note files under its writer: "kernel", "sched" or
   "heal". *)
let ras_store db ~cycle ~rank ev =
  let severity, component, message =
    match ev with
    | Fault f ->
      let component, args =
        match f with
        | L1_parity { rank; core } -> ("parity", Printf.sprintf "rank=%d core=%d" rank core)
        | Node_death { rank } -> ("node_death", Printf.sprintf "rank=%d" rank)
        | Link_failure { rank; dir } -> ("link", Printf.sprintf "rank=%d dir=%d" rank dir)
        | Link_repair { rank; dir } -> ("link_up", Printf.sprintf "rank=%d dir=%d" rank dir)
        | Ciod_crash { io_node; fatal } ->
          ("ciod_crash", Printf.sprintf "io=%d fatal=%d" io_node (if fatal then 1 else 0))
        | Ciod_restart { io_node } -> ("ciod_up", Printf.sprintf "io=%d" io_node)
      in
      (fault_severity f, component, Printf.sprintf "FAULT %s %s" component args)
    | Alert a ->
      ( a.Bg_obs.Health.severity,
        "health",
        Printf.sprintf
          "HEALTH alert rule=%s series=%s rank=%d core=%d window=%d value=%.17g \
           threshold=%.17g"
          a.rule a.series a.rank a.core a.window a.value a.threshold )
    | Thread_death { tid; cause } ->
      ( Bg_obs.Rasdb.Error,
        "kernel",
        match cause with
        | Crashed reason -> Printf.sprintf "tid %d crashed: %s" tid reason
        | Unhandled_signal signo -> Printf.sprintf "tid %d killed by unhandled signal %d" tid signo
        | Segv reason -> Printf.sprintf "tid %d segv: %s" tid reason )
    | Note { from; severity; text } ->
      (severity, (match from with Kernel -> "kernel" | Sched -> "sched" | Heal -> "heal"), text)
  in
  Bg_obs.Rasdb.add db ~cycle ~rank ~severity ~component ~message

type health_service = {
  h_ts : Bg_obs.Timeseries.t;
  h_db : Bg_obs.Rasdb.t;
  h_svc : Bg_obs.Health.t;
}

type t = {
  instance : int;
  sim : Bg_engine.Sim.t;
  params : Bg_hw.Params.t;
  chips : Bg_hw.Chip.t array;
  torus : Bg_hw.Torus.t;
  collective : Bg_hw.Collective_net.t;
  barrier : Bg_hw.Barrier_net.t;
  dma : Bg_hw.Dma.t array;
  obs : Bg_obs.Obs.t;
  acct : Bg_obs.Accounting.t;
  causal : Bg_obs.Causal.t;
  mutable health : health_service option;
  mutable ras_subscribers : (rank:int -> ras_event -> unit) list;
  mutable launch_text : (string * int * bytes) option;
}

let instance_counter = ref 0

let on_ras t f = t.ras_subscribers <- f :: t.ras_subscribers

(* A named loop, not [List.iter] over a closure: an emit allocates
   nothing beyond its event. *)
let rec deliver ~rank ev = function
  | [] -> ()
  | f :: rest ->
    f ~rank ev;
    deliver ~rank ev rest

let ras_emit t ~rank ev = deliver ~rank ev t.ras_subscribers
let ras_note t ~rank ~from severity text = ras_emit t ~rank (Note { from; severity; text })

let create ?(params = Bg_hw.Params.bgp) ?(seed = 1L) ?nodes_per_io_node ?obs ?causal
    ?dma_fifo_depth ~dims () =
  incr instance_counter;
  let x, y, z = dims in
  let n = x * y * z in
  let sim = Bg_engine.Sim.create ~seed () in
  let nodes_per_io_node =
    match nodes_per_io_node with Some k -> k | None -> if n <= 64 then n else 64
  in
  let torus = Bg_hw.Torus.create sim ~params ~dims () in
  let t =
    {
      instance = !instance_counter;
      sim;
      params;
      chips = Array.init n (fun id -> Bg_hw.Chip.create ~params ~id ());
      torus;
      collective =
        Bg_hw.Collective_net.create sim ~params ~compute_nodes:n ~nodes_per_io_node ();
      barrier = Bg_hw.Barrier_net.create sim ~params ~participants:n ();
      dma = Bg_hw.Dma.create_group sim torus ?injection_depth:dma_fifo_depth ();
      obs = (match obs with Some o -> o | None -> Bg_obs.Obs.create ());
      acct = Bg_obs.Accounting.create ();
      causal =
        (match causal with
        | Some c -> c
        | None -> Bg_obs.Causal.create ~seed:(Int64.to_int seed) ());
      health = None;
      ras_subscribers = [];
      launch_text = None;
    }
  in
  (* Per-chip UPC feeds that need the rank-to-chip mapping: torus packet
     injections, barrier arrivals and DMA descriptor injections land on
     the injecting/arriving chip's counter unit. *)
  Bg_hw.Torus.set_inject_hook t.torus (fun ~src ->
      if src >= 0 && src < n then
        Bg_hw.Upc.record (Bg_hw.Chip.upc t.chips.(src)) ~core:Bg_hw.Upc.chip_scope
          Bg_hw.Upc.Torus_packet 1);
  Bg_hw.Barrier_net.set_arrive_hook t.barrier (fun ~rank ->
      if rank >= 0 && rank < n then
        Bg_hw.Upc.record (Bg_hw.Chip.upc t.chips.(rank)) ~core:Bg_hw.Upc.chip_scope
          Bg_hw.Upc.Barrier_wait 1);
  Array.iteri
    (fun rank engine ->
      Bg_hw.Dma.set_inject_hook engine (fun ~bytes ->
          Bg_hw.Upc.record (Bg_hw.Chip.upc t.chips.(rank)) ~core:Bg_hw.Upc.chip_scope
            Bg_hw.Upc.Dma_descriptor 1;
          Bg_obs.Obs.add t.obs ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.injected 1;
          Bg_obs.Obs.add t.obs ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.injected_bytes bytes);
      Bg_hw.Dma.set_deliver_hook engine (fun ~bytes ->
          Bg_obs.Obs.add t.obs ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.delivered 1;
          Bg_obs.Obs.add t.obs ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.delivered_bytes bytes);
      (* Causal: a byte-decrement counter latching zero is the hardware's
         completion notification — link it back to the injection that
         armed it, via the context the descriptor carried. *)
      Bg_hw.Dma.set_counter_done_hook engine (fun ~id ~ctx ->
          if Bg_obs.Causal.enabled t.causal && ctx <> Bg_obs.Causal.none then begin
            let dst =
              Bg_obs.Causal.mint t.causal ~chain:false ~cat:"dma"
                ~name:(Printf.sprintf "counter%d.zero" id)
                ~rank ~core:0 ~now:(Bg_engine.Sim.now t.sim) ()
            in
            Bg_obs.Causal.link t.causal Bg_obs.Causal.Inject_complete ~src:ctx ~dst
          end))
    t.dma;
  (* A link severed while transfers are crossing it is a hardware fault
     the RAS stream must carry, so Recovery hears of it without knowing
     about the torus. *)
  Bg_hw.Torus.set_link_down_hook t.torus (fun ~rank ~dir ~in_flight ->
      if in_flight > 0 then ras_emit t ~rank (Fault (Link_failure { rank; dir })));
  t

let obs t = t.obs
let acct t = t.acct
let causal t = t.causal

let nodes t = Array.length t.chips
let chip t i = t.chips.(i)
let dma t i = t.dma.(i)
let sim t = t.sim

(* One entry, not a table: a launch defers its text write, and a capture
   or scan settles the pending writes of one job's nodes back to back, so
   they all hit it. It holds the text, not the image, so nothing of a
   finished job stays reachable from the machine. *)
let launch_text t ~name ~len draw =
  match t.launch_text with
  | Some (n, l, text) when l = len && String.equal n name -> text
  | _ ->
    let text = draw () in
    t.launch_text <- Some (name, len, text);
    text

(* Surface a rank's DMA-engine and torus-link state into the metrics
   registry (kernels call this at job end, tools at collection time).
   Purely observational: no-ops while the collector is disabled. *)
let publish_net_gauges t ~rank =
  let o = t.obs in
  if Bg_obs.Obs.enabled o then begin
    let e = t.dma.(rank) in
    let s = Bg_hw.Dma.stats e in
    Bg_obs.Obs.set o ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.inj_fifo_occupancy
      (Bg_hw.Dma.injection_occupancy e);
    Bg_obs.Obs.set o ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.rcv_fifo_occupancy
      (Bg_hw.Dma.reception_occupancy e);
    Bg_obs.Obs.set o ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.inject_stalls
      s.Bg_hw.Dma.inject_stalls;
    Bg_obs.Obs.set o ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.recv_backpressure
      s.Bg_hw.Dma.recv_backpressure;
    Bg_obs.Obs.set o ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.dropped s.Bg_hw.Dma.dropped;
    for dir = 0 to 5 do
      let busy = Bg_hw.Torus.link_busy_cycles t.torus ~rank ~dir in
      if busy > 0 then
        Bg_obs.Obs.set o ~rank ~core:Bg_obs.Obs.node_scope Metrics.Net.link_busy.(dir)
        busy
    done
  end

(* --- machine health service -------------------------------------------- *)

let health t = t.health

(* Which series a fault class implicates in its postmortem bundle: the
   counters an operator would pull first for that component. *)
let implicated_series ~component ~rank:_ =
  match component with
  | "ciod_crash" ->
      [ ("cio", "retransmits"); ("cio", "eio"); ("cio", "ship_requests");
        ("ras", "error") ]
  | "link" ->
      [ ("dma", "inject_stalls"); ("dma", "dropped"); ("torus", "links_down");
        ("ras", "error") ]
  | "parity" -> [ ("resilience", "parity_faults"); ("ras", "error") ]
  | _ -> [ ("ras", "error") ]

let attach_health ?window ?ring ?db_capacity ?recorder ?(rules = []) t =
  match t.health with
  | Some h -> Ok h
  | None -> (
    let ts = Bg_obs.Timeseries.create ?window ?capacity:ring t.obs in
    let db = Bg_obs.Rasdb.create ?capacity:db_capacity () in
    match Bg_obs.Health.create ?recorder ~causal:t.causal ~ts ~db ~rules () with
    | Error _ as e -> e
    | Ok svc ->
      (* Sampling a disabled registry would roll up nothing. *)
      Bg_obs.Obs.set_enabled t.obs true;
      (* Every RAS event lands in the database; severity totals mirror
         into the metrics registry so rasdb, obs_tool and alert rules
         read one source of truth. *)
      on_ras t (fun ~rank ev ->
          ignore (ras_store db ~cycle:(Bg_engine.Sim.now t.sim) ~rank ev);
          Bg_obs.Rasdb.publish_gauges db t.obs);
      Bg_obs.Health.set_emit svc (fun a -> ras_emit t ~rank:a.Bg_obs.Health.rank (Alert a));
      (* Restore in this repo is replay (see the snapshot section below):
         the snapshot reference a postmortem can carry is the replay
         cursor, not a file. *)
      Bg_obs.Health.set_snap_provider svc (fun () ->
          Printf.sprintf "replay:seed=%Ld,events=%d,clock=%d"
            (Bg_engine.Sim.seed t.sim)
            (Bg_engine.Sim.events_fired t.sim)
            (Bg_engine.Sim.now t.sim));
      Bg_obs.Health.set_implicate svc implicated_series;
      (* The sampling probe: refresh hardware-derived gauges (DMA FIFOs,
         torus links, UPC readings) so every window edge sees current
         levels. Reads state, writes only gauges — passive. *)
      Bg_obs.Timeseries.add_probe ts (fun ~now:_ ->
          for rank = 0 to nodes t - 1 do
            publish_net_gauges t ~rank;
            Bg_hw.Upc.iter_nonzero (Bg_hw.Chip.upc t.chips.(rank)) (fun event ~core count ->
                Bg_obs.Obs.set t.obs ~rank ~core (Metrics.Kernel.upc_event event) count)
          done;
          Bg_obs.Obs.set t.obs ~rank:Bg_obs.Obs.node_scope ~core:Bg_obs.Obs.node_scope
            Metrics.Net.links_down
            (List.length (Bg_hw.Torus.broken_links t.torus));
          Bg_obs.Rasdb.publish_gauges db t.obs);
      Bg_obs.Timeseries.arm ts t.sim;
      let h = { h_ts = ts; h_db = db; h_svc = svc } in
      t.health <- Some h;
      Ok h)

(* --- whole-machine snapshot ------------------------------------------- *)

(* Region payloads come from the per-layer [capture] functions; this
   module decides the region split. Kernel layers above (cnk, fwk, cio,
   control) append their own regions via [extra]. *)
let capture t =
  let region = Bg_snap.Snap.region in
  [
    region "engine.sim" (fun b -> Bg_engine.Sim.capture t.sim b);
    region "hw.chips" (fun b ->
        Array.iter (fun c -> Bg_hw.Chip.capture c b) t.chips);
    region "hw.torus" (fun b -> Bg_hw.Torus.capture t.torus b);
    region "hw.collective" (fun b -> Bg_hw.Collective_net.capture t.collective b);
    region "hw.barrier" (fun b -> Bg_hw.Barrier_net.capture t.barrier b);
    region "hw.dma" (fun b -> Array.iter (fun e -> Bg_hw.Dma.capture e b) t.dma);
    region "obs.spans" (fun b -> Bg_obs.Obs.capture t.obs b);
    region "obs.acct" (fun b -> Bg_obs.Accounting.capture t.acct b);
    region "obs.causal" (fun b -> Bg_obs.Causal.capture t.causal b);
  ]

let snapshot t ~scenario ~knobs ?(extra = []) () =
  {
    Bg_snap.Snap.format_version = Bg_snap.Snap.format_version;
    scenario;
    knobs;
    seed = Bg_engine.Sim.seed t.sim;
    events = Bg_engine.Sim.events_fired t.sim;
    clock = Bg_engine.Sim.now t.sim;
    regions = capture t @ extra;
  }

let verify t ?(extra = []) (file : Bg_snap.Snap.file) =
  let live =
    {
      file with
      Bg_snap.Snap.seed = Bg_engine.Sim.seed t.sim;
      events = Bg_engine.Sim.events_fired t.sim;
      clock = Bg_engine.Sim.now t.sim;
      regions = capture t @ extra;
    }
  in
  match Bg_snap.Snap.diff file live with
  | Some m -> Error m
  | None ->
    if Bg_engine.Sim.seed t.sim <> file.Bg_snap.Snap.seed then
      Error { Bg_snap.Snap.m_layer = "engine.sim"; m_offset = 0 }
    else Ok ()

type restore_error =
  | Cursor_passed of { fired : int; wanted : int }
  | Queue_drained of { fired : int; wanted : int }
  | Restore_mismatch of Bg_snap.Snap.mismatch

let restore_error_to_string = function
  | Cursor_passed { fired; wanted } ->
    Printf.sprintf "machine already past the cursor (%d fired, snapshot at %d)" fired
      wanted
  | Queue_drained { fired; wanted } ->
    Printf.sprintf "event queue drained at %d events, snapshot cursor is %d" fired wanted
  | Restore_mismatch m ->
    Printf.sprintf "replayed state diverges from the snapshot in region %s at byte %d"
      m.Bg_snap.Snap.m_layer m.Bg_snap.Snap.m_offset

(* Restore is replay: the caller rebuilds the scenario (same seed, same
   knobs, same construction order) on this machine, then [restore] runs
   the simulator to the snapshot's event cursor and byte-verifies every
   captured region. Event payloads are closures, so there is no way to
   install state directly; determinism makes replay exact, and the
   verification proves it. *)
let restore t ?(extra = fun () -> []) (file : Bg_snap.Snap.file) =
  let wanted = file.Bg_snap.Snap.events in
  let fired () = Bg_engine.Sim.events_fired t.sim in
  if fired () > wanted then Error (Cursor_passed { fired = fired (); wanted })
  else begin
    (* a halt stops a run, not a replay: resume until the cursor *)
    let rec replay () =
      match Bg_engine.Sim.run ~max_events:(wanted - fired ()) t.sim with
      | Bg_engine.Sim.Halted _ -> replay ()
      | Completed -> Error (Queue_drained { fired = fired (); wanted })
      | Reached_limit | Stopped -> (
        match verify t ~extra:(extra ()) file with
        | Ok () -> Ok ()
        | Error m -> Error (Restore_mismatch m))
    in
    replay ()
  end
