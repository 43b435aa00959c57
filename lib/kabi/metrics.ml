(* The metric schema: every metric the simulator records, declared once,
   one section per layer. Declaring them in one module, which [Machine]
   references, puts the whole schema in every program that builds a
   machine; OCaml links only the modules a program references, so
   declarations spread over the layers would give each program its own
   partial schema. *)

module M = Bg_obs.Obs.Metric

let node = [ M.Node ]
let rank = [ M.Rank ]
let core = [ M.Core ]
let tenant = [ M.Tenant ]

(* --- kernels (CNK and FWK) -------------------------------------------- *)

module Kernel = struct
  let ras_emitted =
    M.counter ~subsystem:"kernel" ~name:"ras_emitted" ~unit:"count" ~scopes:rank
      "RAS events the node's kernel emitted."

  let syscalls =
    M.counters_family ~subsystem:"syscall" ~names:Sysreq.kind_names ~pattern:"<kind>"
      ~unit:"count" ~scopes:core
      "Syscalls of this kind that replied on this core (exits never reply)."

  let syscall_cycles =
    M.timers_family ~subsystem:"syscall" ~names:Sysreq.kind_names ~pattern:"<kind>"
      ~unit:"cycles" ~scopes:rank
      "Dispatch-to-reply latency of this syscall kind on this node."

  let tlb_miss =
    M.counter ~subsystem:"tlb" ~name:"miss" ~unit:"count" ~scopes:core
      "CNK accesses outside the static TLB map; each kills its thread."

  let tlb_map_swap =
    M.counter ~subsystem:"tlb" ~name:"map_swap" ~unit:"count" ~scopes:core
      "CNK static-map swaps on a context switch between processes."

  let tlb_refill =
    M.counter ~subsystem:"tlb" ~name:"refill" ~unit:"count" ~scopes:core
      "FWK software TLB refills from the page table."

  let tlb_hw_misses =
    M.gauge ~subsystem:"tlb" ~name:"hw_misses" ~unit:"count" ~scopes:core
      "Hardware TLB misses of the core, read at job end."

  let dac_violation =
    M.counter ~subsystem:"dac" ~name:"violation" ~unit:"count" ~scopes:core
      "CNK stores stopped by a DAC guard region."

  let dac_hw_violations =
    M.gauge ~subsystem:"dac" ~name:"hw_violations" ~unit:"count" ~scopes:core
      "Hardware DAC violations of the core, read at job end."

  let vm_major_fault =
    M.counter ~subsystem:"vm" ~name:"major_fault" ~unit:"count" ~scopes:core
      "FWK demand-paging faults that filled the page from a mapped file."

  let vm_minor_fault =
    M.counter ~subsystem:"vm" ~name:"minor_fault" ~unit:"count" ~scopes:core
      "FWK demand-paging faults on anonymous memory (no file read)."

  let upc =
    M.gauges_family ~subsystem:"upc"
      ~names:(Array.of_list (List.map Bg_hw.Upc.event_name Bg_hw.Upc.all_events))
      ~pattern:"<event>" ~unit:"count" ~scopes:[ M.Core; M.Rank ]
      "UPC hardware counter of this event; core -1 is the chip-wide counter."

  let upc_event e = upc.(Bg_hw.Upc.event_index e)
end

(* --- function-shipped I/O: the compute-node side ----------------------- *)

module Cio = struct
  let c name doc = M.counter ~subsystem:"cio" ~name ~unit:"count" ~scopes:rank doc

  let ship_requests = c "ship_requests" "File I/O requests CNK function-shipped to its I/O node."

  let ship_bytes =
    M.counter ~subsystem:"cio" ~name:"ship_bytes" ~unit:"bytes" ~scopes:rank
      "Encoded bytes of the shipped requests and frames."

  let acks = c "acks" "Acks sent for replies received on the reliable path."

  let corrupt_replies =
    c "corrupt_replies" "Reply frames dropped for a bad CRC, a wrong kind or a bad payload."

  let stale_replies = c "stale_replies" "Replies that matched no in-flight request."
  let eio = c "eio" "Requests failed with EIO after the retransmission budget ran out."
  let retransmits = c "retransmits" "Request frames resent after a retransmission timeout."
  let local_served = c "local_served" "File I/O requests the FWK served on the node itself."

  let service_cycles =
    M.timer ~subsystem:"cio" ~name:"service_cycles" ~unit:"cycles" ~scopes:rank
      "CIOD service time of this rank's requests on an I/O-node core."

  let queue_wait_cycles =
    M.timer ~subsystem:"cio" ~name:"queue_wait_cycles" ~unit:"cycles" ~scopes:rank
      "Time this rank's requests waited for a free I/O-node core."
end

(* --- function-shipped I/O: the I/O daemon (rank = I/O node) ----------- *)

module Ciod = struct
  let c name doc = M.counter ~subsystem:"ciod" ~name ~unit:"count" ~scopes:rank doc

  let served = c "served" "Requests CIOD executed."
  let corrupt_frames = c "corrupt_frames" "Frames dropped for a bad CRC."
  let malformed = c "malformed" "Frames or requests that failed to decode."

  let retransmit_seen =
    c "retransmit_seen"
      "Duplicate or stale request frames, answered from the reply cache or dropped."

  let queue_rejects = c "queue_rejects" "Requests refused because the daemon's queue was full."
  let dropped_dead = c "dropped_dead" "Frames that arrived while the daemon was down."
  let crashes = c "crashes" "Daemon crashes."
  let restarts = c "restarts" "Daemon restarts."

  let queue_depth =
    M.gauge ~subsystem:"ciod" ~name:"queue_depth" ~unit:"requests" ~scopes:rank
      "Requests in service on the daemon (reliable path)."
end

(* --- DMA engine and torus --------------------------------------------- *)

module Net = struct
  let injected =
    M.counter ~subsystem:"dma" ~name:"injected" ~unit:"count" ~scopes:rank
      "Descriptors the node's DMA engine injected."

  let injected_bytes =
    M.counter ~subsystem:"dma" ~name:"injected_bytes" ~unit:"bytes" ~scopes:rank
      "Payload bytes of the injected descriptors."

  let delivered =
    M.counter ~subsystem:"dma" ~name:"delivered" ~unit:"count" ~scopes:rank
      "Messages the node's DMA engine delivered."

  let delivered_bytes =
    M.counter ~subsystem:"dma" ~name:"delivered_bytes" ~unit:"bytes" ~scopes:rank
      "Payload bytes of the delivered messages."

  let g name unit doc = M.gauge ~subsystem:"dma" ~name ~unit ~scopes:rank doc
  let inj_fifo_occupancy = g "inj_fifo_occupancy" "descriptors" "Injection FIFO occupancy."
  let rcv_fifo_occupancy = g "rcv_fifo_occupancy" "packets" "Reception FIFO occupancy."
  let inject_stalls = g "inject_stalls" "count" "Injections refused on a full injection FIFO."
  let recv_backpressure =
    g "recv_backpressure" "count" "Deliveries retried on a full reception FIFO."
  let dropped = g "dropped" "count" "Transfers lost to a severed route."

  let link_busy =
    M.gauges_family ~subsystem:"torus"
      ~names:(Array.init 6 (Printf.sprintf "link%d_busy_cycles"))
      ~pattern:"link<dir>_busy_cycles" ~unit:"cycles" ~scopes:rank
      "Cycles the node's outgoing torus link in this direction was busy (set once nonzero)."

  let links_down =
    M.gauge ~subsystem:"torus" ~name:"links_down" ~unit:"links" ~scopes:node
      "Torus links currently broken."
end

(* --- OS noise injection ------------------------------------------------ *)

module Noise = struct
  let activations =
    M.counter ~subsystem:"noise" ~name:"activations" ~unit:"count" ~scopes:core
      "Noise daemon activations on the core."

  let injected_cycles =
    M.counter ~subsystem:"noise" ~name:"injected_cycles" ~unit:"cycles" ~scopes:core
      "Cycles the noise daemons took from the core."
end

(* --- control system: the scheduler ------------------------------------- *)

module Scheduler = struct
  let c name doc = M.counter ~subsystem:"scheduler" ~name ~unit:"count" ~scopes:node doc

  let jobs_submitted = c "jobs_submitted" "Jobs accepted into the queue."
  let jobs_rejected = c "jobs_rejected" "Submissions refused while admission was closed."
  let backfill_started = c "backfill_started" "Jobs started out of order by backfill."
  let jobs_started = c "jobs_started" "Job starts, restarts included."
  let walltime_kills = c "walltime_kills" "Jobs killed at their walltime limit."

  let duplicate_completions =
    c "duplicate_completions" "Completion reports for a job or rank already reported."

  let jobs_restarted = c "jobs_restarted" "Failed jobs requeued for a restart."
  let jobs_completed = c "jobs_completed" "Jobs that reached a final state."
  let nodes_down = c "nodes_down" "Nodes marked failed."
  let nodes_revived = c "nodes_revived" "Failed nodes returned to service."
  let jobs_shed = c "jobs_shed" "Queued jobs shed under degradation."

  let t name doc = M.timer ~subsystem:"scheduler" ~name ~unit:"cycles" ~scopes:node doc
  let queue_wait_cycles = t "queue_wait_cycles" "Submission (or requeue) to start."
  let recovery_latency_cycles = t "recovery_latency_cycles" "Failure of a job to its restart."

  let turnaround_cycles =
    t "turnaround_cycles" "First submission to final state, across restarts."
end

(* --- multi-tenant scheduling (rank = tenant id) ------------------------ *)

module Sched = struct
  let c name doc = M.counter ~subsystem:"sched" ~name ~unit:"count" ~scopes:tenant doc

  let jobs_rejected =
    c "jobs_rejected" "The tenant's submissions refused while admission was closed."
  let jobs_shed = c "jobs_shed" "The tenant's queued jobs shed under degradation."
  let jobs_completed = c "jobs_completed" "The tenant's jobs that completed."
  let jobs_failed = c "jobs_failed" "The tenant's jobs that ended failed."

  let busy_node_cycles =
    M.counter ~subsystem:"sched" ~name:"busy_node_cycles" ~unit:"node-cycles"
      ~scopes:[ M.Tenant; M.Node ]
      "Nodes times cycles held by finished jobs; node scope is the machine total."

  let long_hi = float_of_int (1 lsl 26)

  let queue_wait_cycles =
    M.timer ~hi:long_hi ~subsystem:"sched" ~name:"queue_wait_cycles" ~unit:"cycles"
      ~scopes:tenant "The tenant's submission (or requeue) to start."

  let turnaround_cycles =
    M.timer ~hi:long_hi ~subsystem:"sched" ~name:"turnaround_cycles" ~unit:"cycles"
      ~scopes:tenant "The tenant's first submission to final state."

  let bounded_slowdown_milli =
    M.timer ~hi:65536. ~subsystem:"sched" ~name:"bounded_slowdown_milli" ~unit:"milli"
      ~scopes:tenant "Turnaround over max(run time, 10^4 cycles), times 1000, at least 1000."
end

(* --- resilience: injection, recovery, checkpoints ---------------------- *)

module Resilience = struct
  let c name doc = M.counter ~subsystem:"resilience" ~name ~unit:"count" ~scopes:node doc

  let mtbf_cycles =
    M.gauge ~subsystem:"resilience" ~name:"mtbf_cycles" ~unit:"cycles" ~scopes:node
      "Simulated time over faults injected so far."

  let parity_injected = c "parity_injected" "L1 parity errors injected."
  let parity_delivered = c "parity_delivered" "Injected parity errors that hit running user code."
  let deaths_injected = c "deaths_injected" "Node deaths injected."
  let links_broken = c "links_broken" "Torus links broken by injection."
  let ciod_crashes_injected = c "ciod_crashes_injected" "CIOD crashes injected."
  let deaths_handled = c "deaths_handled" "Node deaths recovery acted on."
  let substitutions = c "substitutions" "Dead nodes replaced by a spare."
  let psets_lost = c "psets_lost" "Psets lost with their I/O node."
  let psets_rebuilt = c "psets_rebuilt" "Lost psets brought back."
  let alerts_seen = c "alerts_seen" "Health alerts recovery received."
  let restores = c "restores" "Checkpointed runs that resumed from a saved step."
  let parity_redos = c "parity_redos" "Steps redone in place after a parity SIGBUS."
  let steps_executed = c "steps_executed" "Application steps executed, redos not counted."
  let ckpt_full = c "ckpt_full" "Full checkpoints written."
  let ckpt_delta = c "ckpt_delta" "Delta checkpoints written."

  let ckpt_bytes =
    M.counter ~subsystem:"resilience" ~name:"ckpt_bytes" ~unit:"bytes" ~scopes:node
      "Bytes written by checkpoints."

  let ckpt_cycles =
    M.timer ~subsystem:"resilience" ~name:"ckpt_cycles" ~unit:"cycles" ~scopes:node
      "Time one rank spent writing one checkpoint, barriers included."
end

(* --- resilience: the self-healing policy ------------------------------- *)

module Policy = struct
  let c name doc = M.counter ~subsystem:"policy" ~name ~unit:"count" ~scopes:node doc

  let health_state =
    M.gauge ~subsystem:"policy" ~name:"health_state" ~unit:"level" ~scopes:node
      "Machine health: 0 healthy, 1 degraded, 2 critical."

  let fault_pressure =
    M.gauge ~subsystem:"policy" ~name:"fault_pressure" ~unit:"faults" ~scopes:node
      "Faults inside the policy's sliding window."

  let transitions = c "transitions" "Health state changes."
  let ciod_restarts = c "ciod_restarts" "Crashed CIODs the policy restarted."
  let psets_drained = c "psets_drained" "Psets drained after repeated fatal faults."
  let psets_rebuilt = c "psets_rebuilt" "Drained psets rebuilt."
  let retries_delayed = c "retries_delayed" "Job restarts delayed by backoff."
end

(* --- the RAS database ------------------------------------------------- *)

(* [Rasdb.publish_gauges] sets these by name. *)
module Ras = struct
  let g name doc = M.gauge ~subsystem:"ras" ~name ~unit:"count" ~scopes:node doc
  let info = g "info" "RAS records of severity INFO inserted into the database."
  let warn = g "warn" "RAS records of severity WARN inserted into the database."
  let error = g "error" "RAS records of severity ERROR inserted into the database."
  let total = g "total" "RAS records inserted into the database."
  let dropped = g "dropped" "RAS records evicted from the database's bounded retention."
end

let markdown () =
  String.concat "\n"
    [
      "# Metrics";
      "";
      "Every metric the simulator records, generated from the metric schema";
      "(`lib/kabi/metrics.ml`, plus `obs.dropped_spans` in `lib/obs/obs.ml`) by";
      "`make metrics-doc`. Do not edit by hand: a test fails when this file and";
      "the schema disagree.";
      "";
      "Scopes: `node` is the machine or control system (rank and core -1),";
      "`rank` one node (core -1), `core` one (rank, core), `tenant` one";
      "scheduler tenant (the rank field holds the tenant id).";
      "";
      Bg_obs.Obs.Metric.markdown_table ();
    ]
