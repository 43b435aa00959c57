open Bg_engine
open Bg_hw
open Kernel
module Obs = Bg_obs.Obs
module Accounting = Bg_obs.Accounting
module Causal = Bg_obs.Causal
module Frame = Bg_cio.Frame
module Reliable = Bg_cio.Reliable

(* Trace, span and causal labels, declared once (see [Bg_engine.Fnv.Label]). *)
module L = struct
  let boot = Trace.label "cnk.boot"
  let clone = Trace.label "cnk.clone"
  let fship = Trace.label "cnk.fship"
  let fship_eio = Trace.label "cnk.fship_eio"
  let fship_retry = Trace.label "cnk.fship_retry"
  let guard = Trace.label "cnk.guard"
  let guard_hit = Trace.label "cnk.guard_hit"
  let ipi = Trace.label "cnk.ipi"
  let ipi_handle = Obs.label ~cat:"ipi" ~name:"ipi.handle"
  let ipi_send = Obs.label ~cat:"ipi" ~name:"ipi.send"
  let job_done = Trace.label "cnk.job_done"
  let job_killed = Trace.label "cnk.job_killed"
  let l1_parity = Trace.label "cnk.l1_parity"
  let launch = Trace.label "cnk.launch"
  let map_swap = Obs.label ~cat:"tlb" ~name:"map_swap"
  let proc_exit = Trace.label "cnk.proc_exit"
  let remote_affinity = Trace.label "cnk.remote_affinity"
  let reply_deliver = Obs.label ~cat:"cio" ~name:"reply.deliver"
  let reset = Trace.label "cnk.reset"
  let ship_request = Obs.label ~cat:"cio" ~name:"ship.request"
  let signal = Trace.label "cnk.signal"
  let static_install = Obs.label ~cat:"tlb" ~name:"static_install"
  let syscall = Trace.label "cnk.syscall"
  let thread_exit = Trace.label "cnk.thread_exit"
  let tlb_swap = Trace.label "cnk.tlb_swap"
  let transit_request = Obs.label ~cat:"cio" ~name:"transit_request"
end

(* --- tunable kernel constants (cycles) ------------------------------ *)

let boot_cycles = 70_000
let reproducible_restart_cycles = 40_000
let prepare_reset_cycles = 12_000
let syscall_overhead = 120
let ctx_switch_cycles = 90
let guard_bytes = 64 * 1024
let ipi_latency = 300
let ipi_handler_cycles = 250

(* --- types ----------------------------------------------------------- *)

(* CNK's share of each scaffold record (see [Kernel]). *)
type tx = {
  is_main : bool;
  mutable guard : (int * int) option;  (* DAC-watched range, (lo, hi) *)
  mutable guard_slot : int option;
}

type px = {
  map : Mapping.process_map;
  static_tlb : Tlb.static_map;  (* [map]'s entries, validated once *)
  home_cores : int list;  (* cores this process owns *)
  mutable exit_code : int;
  job : Job.t;
}

type cx = {
  mutable pending_ipi : int;  (* IPI handler cycles to charge *)
  mutable next_dac_slot : int;
  (* SSVIII extended thread affinity: the single process whose pthreads may
     also run on this core, and whose map the core must swap to *)
  mutable remote_pid : int option;
  mutable mapped_pid : int option;  (* whose TLB entries the core holds *)
}

(* One outstanding reliable-mode function-ship per thread (threads spin on
   I/O, so depth 1 suffices). Holds everything needed to retransmit. *)
type io_inflight = {
  io_ret : Sysreq.reply -> unit;
  io_seq : int;
  io_frame : bytes;  (* encoded request frame, resent verbatim on timeout *)
  io_pid : int;
  io_core : int;
  mutable io_attempts : int;  (* retransmissions performed so far *)
  mutable io_timer : Bg_engine.Event_queue.handle option;
}

(* A layout config, its map and each process's validated static TLB
   entries. *)
type layout = {
  config : Mapping.config;
  mapping : Mapping.t;
  static_tlbs : Tlb.static_map array;
}

type nx = {
  ciod : Bg_cio.Ciod.t;
  mapping_config : Mapping.config;
  persist : Persist.t;
  io_pending : (int, Sysreq.reply -> unit) Hashtbl.t;  (* tid -> resume *)
  io_inflight : (int, io_inflight) Hashtbl.t;  (* tid -> reliable in-flight *)
  io_seq : (int, int) Hashtbl.t;  (* tid -> next sequence number *)
  mutable io_enabled : bool;
  mutable syscalls : int;
  mutable strace : Buffer.t option;
  mutable ipis : int;
  mutable exit_codes : (int * int) list;
  mutable layouts : layout list;  (* one per layout config launched so far *)
}

type thread = (tx, px) Kernel.thread
type proc = (tx, px) Kernel.proc
type core = (tx, px, cx) Kernel.core
type t = (tx, px, cx, nx) Kernel.t

include Api

let process_count t = Hashtbl.length t.procs
let syscall_count t = t.nx.syscalls
let ipi_count t = t.nx.ipis
let exit_codes t = List.rev t.nx.exit_codes
let persist t = t.nx.persist
let set_io_enabled t v = t.nx.io_enabled <- v

let process_map t ~pid =
  Option.map (fun (p : proc) -> p.px.map) (Hashtbl.find_opt t.procs pid)

(* --- reliable CIO transport (CNK side) ------------------------------- *)

let cio_config t = Bg_cio.Ciod.config t.nx.ciod

let cio_count t m = Obs.add (obs t) ~rank:t.rank ~core:Obs.node_scope m 1

let cancel_io_timer t inf =
  match inf.io_timer with
  | Some h ->
    Sim.cancel (sim t) h;
    inf.io_timer <- None
  | None -> ()

let drop_io_inflight t tid =
  match Hashtbl.find_opt t.nx.io_inflight tid with
  | Some inf ->
    cancel_io_timer t inf;
    Hashtbl.remove t.nx.io_inflight tid
  | None -> ()

(* Ship a frame up the tree. The transit span is recorded one-shot at
   arrival (start captured at send): a dropped message must not leak an
   open span. The delivered payload may differ from [frame] when the
   network corrupts it — CIOD's CRC check catches that. *)
let send_frame_up t ~core frame =
  let o = obs t in
  let sent = Sim.now (sim t) in
  Bg_hw.Collective_net.to_io_node t.machine.Machine.collective ~cn:t.rank ~payload:frame
    ~on_arrival:(fun ~payload ~arrival_cycle ->
      Obs.span_record_l o L.transit_request ~rank:t.rank ~core ~start:sent
        ~finish:arrival_cycle;
      Bg_cio.Ciod.submit t.nx.ciod payload)

(* Acks are fire-and-forget: a lost Ack merely leaves the cached reply
   frame resident until this thread's next request overwrites it (or
   job_end), so the depth-1 cache bounds residency at one frame per live
   thread. CIOD keeps the acked seq as a watermark, so Ack/duplicate
   reordering can never cause re-execution. *)
let send_ack t ~pid ~tid ~seq =
  let frame =
    Frame.encode
      { Frame.kind = Frame.Ack; rank = t.rank; pid; tid; seq; ctx = Causal.none;
        payload = Bytes.create 0 }
  in
  cio_count t Metrics.Cio.acks;
  Bg_hw.Collective_net.to_io_node t.machine.Machine.collective ~cn:t.rank ~payload:frame
    ~on_arrival:(fun ~payload ~arrival_cycle:_ -> Bg_cio.Ciod.submit t.nx.ciod payload)

let deliver_reliable t reply_bytes =
  match Frame.decode reply_bytes with
  | Error _ -> cio_count t Metrics.Cio.corrupt_replies
  | Ok f when f.Frame.kind <> Frame.Reply -> cio_count t Metrics.Cio.corrupt_replies
  | Ok f -> (
    match Hashtbl.find_opt t.nx.io_inflight f.Frame.tid with
    | Some inf when inf.io_seq = f.Frame.seq -> (
      match Bg_cio.Proto.decode_reply f.Frame.payload with
      | Error _ ->
        (* CRC passed but the inner payload is bad: treat as loss, the
           retransmission timer re-drives the request. *)
        cio_count t Metrics.Cio.corrupt_replies
      | Ok (_hdr, reply) ->
        cancel_io_timer t inf;
        Hashtbl.remove t.nx.io_inflight f.Frame.tid;
        (* Causal: the reply frame carries CIOD's service node; hang the
           delivery off it. A replayed cached reply carries the same
           node, so duplicates collapse onto one service execution. *)
        let r =
          causal_mint t L.reply_deliver ~core:inf.io_core
        in
        Causal.link (causal t) Causal.Send_recv ~src:f.Frame.ctx ~dst:r;
        send_ack t ~pid:inf.io_pid ~tid:f.Frame.tid ~seq:f.Frame.seq;
        inf.io_ret reply)
    | _ ->
      (* No in-flight request at that seq: a duplicated or very late
         reply whose request already completed. *)
      cio_count t Metrics.Cio.stale_replies)

(* --- memory access through the static map --------------------------- *)

let translate t (th : thread) access va len =
  let core = Chip.core t.chip th.core_id in
  match Tlb.translate core.Chip.tlb access va with
  | Tlb.Miss ->
    Obs.add (obs t) ~rank:t.rank ~core:th.core_id Metrics.Kernel.tlb_miss 1;
    raise (Fault (Printf.sprintf "TLB miss at 0x%x: outside the static map" va))
  | Tlb.Fault reason -> raise (Fault reason)
  | Tlb.Hit pa ->
    if len > 1 then begin
      (* Tiles of one region are physically contiguous, so the end address
         must translate to pa + len - 1; anything else spans regions. *)
      match Tlb.translate core.Chip.tlb access (va + len - 1) with
      | Tlb.Hit pa_end when pa_end = pa + len - 1 -> pa
      | _ -> raise (Fault (Printf.sprintf "access [0x%x,+%d) spans regions" va len))
    end
    else pa

(* Debug access that bypasses cores (used by tests and by job load). *)
let static_translate t ~pid va =
  match Hashtbl.find_opt t.procs pid with
  | None -> invalid_arg "Node: no such pid"
  | Some p -> (
    match Mapping.region_for p.px.map va with
    | Some r -> r.Sysreq.paddr + (va - r.Sysreq.vaddr)
    | None -> (
      (* persistent regions are mapped va->pa linearly *)
      match
        List.find_opt
          (fun (r : Persist.region) -> va >= r.Persist.va && va < r.Persist.va + r.Persist.bytes)
          (Persist.regions t.nx.persist)
      with
      | Some r -> r.Persist.pa + (va - r.Persist.va)
      | None -> invalid_arg (Printf.sprintf "Node: 0x%x unmapped" va)))

let read_virtual t ~pid ~addr ~len =
  let pa = static_translate t ~pid addr in
  Memory.read (memory t) ~addr:pa ~len

let read_word t (th : thread) va =
  let pa = translate t th Tlb.Load va 8 in
  Int64.to_int (Memory.read_int64 (memory t) ~addr:pa)

let write_word t (th : thread) va v =
  let pa = translate t th Tlb.Store va 8 in
  Mmap_tracker.mark_dirty th.proc.tracker ~addr:va ~len:8;
  Memory.write_int64 (memory t) ~addr:pa (Int64.of_int v)

(* --- guard pages ------------------------------------------------------ *)

let dac_of t (th : thread) = (Chip.core t.chip th.core_id).Chip.dac

let program_guard t (th : thread) lo hi =
  let core = t.cores.(th.core_id) in
  let slot =
    match th.tx.guard_slot with
    | Some s -> s
    | None ->
      let s = core.cx.next_dac_slot in
      core.cx.next_dac_slot <- (s + 1) mod Dac.registers;
      th.tx.guard_slot <- Some s;
      s
  in
  th.tx.guard <- Some (lo, hi);
  Dac.set (dac_of t th) ~slot (Some { Dac.lo; hi; on_store = true; on_load = false });
  emit t L.guard th.tid

let clear_guard t (th : thread) =
  match th.tx.guard_slot with
  | Some slot ->
    Dac.set (dac_of t th) ~slot None;
    th.tx.guard <- None
  | None -> ()

(* The main-thread guard sits on the heap boundary: [brk, brk+guard). *)
let main_guard_range (p : proc) =
  let brk = Mmap_tracker.heap_end p.tracker in
  let hi = min (brk + guard_bytes) (Mmap_tracker.main_stack_lo p.tracker) in
  (brk, hi)

(* --- memory policy ------------------------------------------------------ *)

let read t (th : thread) addr len =
  let pa = translate t th Tlb.Load addr len in
  Cache.access (Chip.l2 t.chip) pa;
  Memory.read (memory t) ~addr:pa ~len

let write t (th : thread) addr data =
  let len = Bytes.length data in
  match Dac.check_store (dac_of t th) ~addr with
  | Some _ ->
    (* Guard hit: SIGSEGV. With a handler the store is dropped and the
       thread continues; without one the thread dies. *)
    th.pending_sigs <- th.pending_sigs @ [ sigsegv ];
    emit t L.guard_hit th.tid;
    Obs.add (obs t) ~rank:t.rank ~core:th.core_id Metrics.Kernel.dac_violation 1;
    ras_note t Bg_obs.Rasdb.Warn (Printf.sprintf "DAC guard hit by tid %d at 0x%x" th.tid addr);
    false
  | None ->
    let pa = translate t th Tlb.Store addr len in
    Cache.access (Chip.l2 t.chip) pa;
    Mmap_tracker.mark_dirty th.proc.tracker ~addr ~len;
    Memory.write (memory t) ~addr:pa data;
    true

(* The kernel writes the exiting thread's tid word through the process's
   static map directly -- the thread's core TLB may hold a remote
   process's map (SSVIII). *)
let clear_tid t (th : thread) addr =
  let pa = static_translate t ~pid:th.proc.pid addr in
  Memory.write_int64 (memory t) ~addr:pa 0L

(* Outside the static map there is nothing to page in: the thread dies. *)
let fault t (th : thread) reason _continue =
  t.faults <- (th.tid, reason) :: t.faults;
  thread_exit t th sigsegv

(* --- time policy ---------------------------------------------------------- *)

(* SSVIII extended affinity: running a remote process's pthread requires the
   core to hold that process's static map. Swapping costs a full flush +
   reinstall — the price of bending the one-process-per-core rule while
   keeping the static-TLB design. *)
let tlb_swap_cycles_per_entry = 30

let remap_core_for t (core : core) (p : proc) =
  if core.cx.mapped_pid = Some p.pid then 0
  else begin
    let tlb = (Chip.core t.chip core.id).Chip.tlb in
    (match Tlb.load tlb p.px.static_tlb with
    | Ok () -> ()
    | Error msg -> failwith ("CNK remote-map install failed: " ^ msg));
    core.cx.mapped_pid <- Some p.pid;
    emit t L.tlb_swap ((core.id * 100) + p.pid);
    let cost = tlb_swap_cycles_per_entry * List.length p.px.map.Mapping.regions in
    let now = Sim.now (sim t) in
    Obs.span_record_l (obs t) L.map_swap ~rank:t.rank ~core:core.id
      ~start:now ~finish:(now + cost);
    Obs.add (obs t) ~rank:t.rank ~core:core.id Metrics.Kernel.tlb_map_swap 1;
    cost
  end

(* Tickless and non-preemptive: a consume runs to completion, stretched
   only by DRAM refresh, injected interference and pending IPI handlers. *)
let consume t (th : thread) n k =
  let core = t.cores.(th.core_id) in
  let penalty = core.penalty in
  core.penalty <- 0;
  let ipi = core.cx.pending_ipi in
  core.cx.pending_ipi <- 0;
  let actual = refresh_stretch t (Sim.now (sim t)) n + penalty + ipi in
  ignore
    (Sim.schedule_in (sim t) actual (fun () ->
         if th.state <> Zombie then begin
           (* the stretched block has known sub-causes: injected daemon
              noise and IPI handler time; the rest was the app *)
           if penalty > 0 || ipi > 0 then
             Accounting.attribute (acct t) ~rank:t.rank ~core:th.core_id
               ~now:(Sim.now (sim t))
               [ (Accounting.Daemon, penalty); (Accounting.Interrupt, ipi) ];
           if deliver_signals t th then step t th (Effect.Deep.continue k ())
         end))

(* --- lifecycle hooks ---------------------------------------------------- *)

(* Surface the hardware's own event counters (TLB miss, DAC violation)
   into the metrics registry as per-core gauges. *)
let publish_hw_gauges t =
  let o = obs t in
  if Obs.enabled o then
    Array.iter
      (fun (core : core) ->
        let hw = Chip.core t.chip core.id in
        Obs.set o ~rank:t.rank ~core:core.id Metrics.Kernel.tlb_hw_misses (Tlb.misses hw.Chip.tlb);
        Obs.set o ~rank:t.rank ~core:core.id Metrics.Kernel.dac_hw_violations
          (Dac.violations hw.Chip.dac))
      t.cores;
  if Obs.enabled o then
    Upc.iter_nonzero (Chip.upc t.chip) (fun event ~core count ->
        Obs.set o ~rank:t.rank ~core (Metrics.Kernel.upc_event event) count);
  Machine.publish_net_gauges t.machine ~rank:t.rank

let hook t = function
  | Trap (th, req) ->
    t.nx.syscalls <- t.nx.syscalls + 1;
    (match t.nx.strace with
    | Some buf ->
      Buffer.add_string buf
        (Format.asprintf "[%d] tid %d: %a@." (Sim.now (sim t)) th.tid Sysreq.pp_request req)
    | None -> ());
    emit t L.syscall ((th.tid * 1000) + (Sysreq.request_name_hash req mod 1000))
  | Signal (th, signo) -> emit t L.signal ((th.tid * 100) + signo)
  | Cloned child ->
    (* The last mprotect before clone defines the child's stack guard. *)
    (match Mmap_tracker.last_mprotect child.proc.tracker with
    | Some (lo, len) -> program_guard t child lo (lo + len)
    | None -> ());
    emit t L.clone child.tid
  | Thread_exit th ->
    clear_guard t th;
    Hashtbl.remove t.nx.io_pending th.tid;
    drop_io_inflight t th.tid;
    Hashtbl.remove t.nx.io_seq th.tid;
    emit t L.thread_exit th.tid
  | Proc_exit (p, code) ->
    p.px.exit_code <- code;
    t.nx.exit_codes <- (p.pid, code) :: t.nx.exit_codes;
    emit t L.proc_exit p.pid
  | Job_done ->
    publish_hw_gauges t;
    Bg_cio.Ciod.job_end t.nx.ciod ~rank:t.rank;
    emit t L.job_done 0

(* --- CNK's own syscalls ------------------------------------------------- *)

(* glibc's NPTL passes one fixed flag set; CNK validates against it and
   rejects anything else (§IV.B.1). The child goes to the least-loaded
   core with room, within the process's per-core thread limit. *)
let clone t (th : thread) flags =
  if flags <> Sysreq.nptl_clone_flags then Error Errno.EINVAL
  else begin
    let p = th.proc in
    let limit = p.px.job.Job.threads_per_core in
    let load core_id =
      List.length
        (List.filter (fun (x : thread) -> x.core_id = core_id && x.state <> Zombie) p.threads)
    in
    (* SSVIII: cores designated with this process as their remote may host
       at most one of its pthreads, after the core's own threads *)
    let remote_candidates =
      Array.to_list t.cores
      |> List.filter_map (fun (c : core) ->
             if c.cx.remote_pid = Some p.pid && not (List.mem c.id p.px.home_cores) && load c.id < 1
             then Some c.id
             else None)
    in
    match List.filter (fun c -> load c < limit) p.px.home_cores @ remote_candidates with
    | [] -> Error Errno.EAGAIN
    | first :: rest ->
      let core_id =
        List.fold_left (fun best c -> if load c < load best then c else best) first rest
      in
      Ok (core_id, { is_main = false; guard = None; guard_slot = None })
  end

(* Heap grew: the main-thread guard must move above the new break. If the
   grower runs on a different core than the main thread, CNK sends an IPI
   (paper Fig 4); same-core updates are free. *)
let reposition_main_guard t (th : thread) =
  match List.find_opt (fun (x : thread) -> x.tx.is_main && x.state <> Zombie) th.proc.threads with
  | None -> ()
  | Some main ->
    let lo, hi = main_guard_range th.proc in
    if main.core_id = th.core_id then program_guard t main lo hi
    else begin
      t.nx.ipis <- t.nx.ipis + 1;
      emit t L.ipi main.core_id;
      let send_ctx = causal_mint t L.ipi_send ~core:th.core_id in
      let core = t.cores.(main.core_id) in
      ignore
        (Sim.schedule_in (sim t) ipi_latency (fun () ->
             core.cx.pending_ipi <- core.cx.pending_ipi + ipi_handler_cycles;
             (* Causal: cross-core interrupt — the sender caused the
                handler to run on the main thread's core. *)
             let recv_ctx =
               causal_mint t L.ipi_handle ~core:main.core_id
             in
             Causal.link (causal t) Causal.Parent_child ~src:send_ctx ~dst:recv_ctx;
             if main.state <> Zombie then program_guard t main lo hi))
    end

let handle_brk t (th : thread) target ret =
  let p = th.proc in
  let old_brk = Mmap_tracker.heap_end p.tracker in
  match Mmap_tracker.brk p.tracker target with
  | Error e -> ret (Sysreq.R_err e)
  | Ok new_brk ->
    if new_brk > old_brk then reposition_main_guard t th;
    ret (Sysreq.R_int new_brk)

let handle_shm_open t (th : thread) name length ret =
  match
    Persist.open_region t.nx.persist ~name ~bytes:length ~owner:th.proc.px.job.Job.user
  with
  | Error e -> ret (Sysreq.R_err e)
  | Ok r ->
    (* Map the region on every core of the process (idempotent installs
       are rejected as overlaps, which we ignore). *)
    let tiles =
      Mapping.tile ~va:r.Persist.va ~pa:r.Persist.pa ~bytes:r.Persist.bytes
        ~floor:Bg_hw.Page_size.P1m
    in
    List.iter
      (fun core_id ->
        let tlb = (Chip.core t.chip core_id).Chip.tlb in
        List.iter
          (fun (page, va, pa) ->
            ignore (Tlb.install tlb { Tlb.vaddr = va; paddr = pa; size = page; perm = Tlb.perm_rwx }))
          tiles)
      th.proc.px.home_cores;
    ret (Sysreq.R_int r.Persist.va)

let function_ship_legacy t (th : thread) req ret =
  let hdr = { Bg_cio.Proto.rank = t.rank; pid = th.proc.pid; tid = th.tid } in
  let data = Bg_cio.Proto.encode_request hdr req in
  (* Causal, legacy transport: bare Proto bytes have no context field,
     so the context rides the reply closure instead of the wire. *)
  let q = causal_mint t L.ship_request ~core:th.core_id in
  let ret =
    if q = Causal.none then ret
    else
      fun reply ->
        let r = causal_mint t L.reply_deliver ~core:th.core_id in
        Causal.link (causal t) Causal.Request_reply ~src:q ~dst:r;
        ret reply
  in
  Hashtbl.replace t.nx.io_pending th.tid ret;
  emit t L.fship th.tid;
  let o = obs t in
  Obs.add o ~rank:t.rank ~core:Obs.node_scope Metrics.Cio.ship_requests 1;
  Obs.add o ~rank:t.rank ~core:Obs.node_scope Metrics.Cio.ship_bytes (Bytes.length data);
  (* Round-trip breakdown, part 1: request marshalling is instantaneous in
     sim time, so the first shipped leg is the collective-network transit
     up to the I/O node; CIOD itself records service and reply legs. *)
  let h =
    Obs.span_begin_l o L.transit_request ~rank:t.rank ~core:th.core_id
      ~now:(Sim.now (sim t))
  in
  (* The thread keeps its core and spins until the reply (§VI.C): no
     context switch happens during an I/O system call. *)
  Bg_hw.Collective_net.to_io_node t.machine.Machine.collective ~cn:t.rank
    ~payload:data ~on_arrival:(fun ~payload ~arrival_cycle:_ ->
      Obs.span_end o h ~now:(Sim.now (sim t));
      Bg_cio.Ciod.submit t.nx.ciod payload)

(* Reliable mode: the request is CRC-framed with a per-thread sequence
   number, retransmitted on timeout with exponential backoff, and fails
   the syscall with EIO (plus a RAS event) once the retry budget is gone.
   The thread still spins on its core throughout — retries cost wall-clock
   cycles, not context switches. *)
let function_ship_reliable t (th : thread) req ret =
  let cfg = cio_config t in
  let hdr = { Bg_cio.Proto.rank = t.rank; pid = th.proc.pid; tid = th.tid } in
  let payload = Bg_cio.Proto.encode_request hdr req in
  let seq = Option.value (Hashtbl.find_opt t.nx.io_seq th.tid) ~default:0 in
  Hashtbl.replace t.nx.io_seq th.tid (seq + 1);
  (* Causal: the request context is baked into the encoded frame, and
     retransmission resends [io_frame] byte-for-byte — so every copy of
     this request carries the SAME context, and CIOD records one
     request->reply edge no matter how many copies arrive. *)
  let q = causal_mint t L.ship_request ~core:th.core_id in
  let frame =
    Frame.encode
      { Frame.kind = Frame.Request; rank = t.rank; pid = th.proc.pid; tid = th.tid; seq;
        ctx = q; payload }
  in
  let inf =
    {
      io_ret = ret;
      io_seq = seq;
      io_frame = frame;
      io_pid = th.proc.pid;
      io_core = th.core_id;
      io_attempts = 0;
      io_timer = None;
    }
  in
  Hashtbl.replace t.nx.io_inflight th.tid inf;
  emit t L.fship th.tid;
  let o = obs t in
  Obs.add o ~rank:t.rank ~core:Obs.node_scope Metrics.Cio.ship_requests 1;
  Obs.add o ~rank:t.rank ~core:Obs.node_scope Metrics.Cio.ship_bytes (Bytes.length frame);
  let rec send () =
    send_frame_up t ~core:th.core_id inf.io_frame;
    arm ()
  and arm () =
    let delay = Reliable.rto cfg ~attempt:inf.io_attempts in
    inf.io_timer <- Some (Sim.schedule_in (sim t) delay on_timeout)
  and on_timeout () =
    inf.io_timer <- None;
    match Hashtbl.find_opt t.nx.io_inflight th.tid with
    | Some i when i == inf ->
      if inf.io_attempts >= cfg.Reliable.retry_budget then begin
        Hashtbl.remove t.nx.io_inflight th.tid;
        cio_count t Metrics.Cio.eio;
        emit t L.fship_eio th.tid;
        ras_note t Bg_obs.Rasdb.Error
          (Printf.sprintf "CIO rank=%d tid=%d seq=%d: retry budget exhausted, EIO"
             t.rank th.tid seq);
        ret (Sysreq.R_err Errno.EIO)
      end
      else begin
        inf.io_attempts <- inf.io_attempts + 1;
        cio_count t Metrics.Cio.retransmits;
        emit t L.fship_retry th.tid;
        send ()
      end
    | _ -> ()
  in
  send ()

let function_ship t th req ret =
  if (cio_config t).Reliable.enabled then function_ship_reliable t th req ret
  else function_ship_legacy t th req ret

let syscall t (th : thread) (req : Sysreq.request) ret =
  let p = th.proc in
  match req with
  | Sysreq.Uname ->
    ret
      (Sysreq.R_uname
         {
           Sysreq.sysname = "CNK";
           nodename = Printf.sprintf "bgp%d-cn%d" t.machine.Machine.instance t.rank;
           release = "2.6.19.2";
           machine = "ppc450d";
         })
  | Sysreq.Get_personality ->
    let torus = t.machine.Machine.torus in
    let coll = t.machine.Machine.collective in
    ret
      (Sysreq.R_personality
         {
           Sysreq.p_rank = t.rank;
           p_coords = Bg_hw.Torus.coord_of_rank torus t.rank;
           p_dims = Bg_hw.Torus.dims torus;
           p_pset = Bg_hw.Collective_net.io_node_of coll ~cn:t.rank;
           p_pset_size =
             (Bg_hw.Collective_net.compute_nodes coll
             + Bg_hw.Collective_net.io_node_count coll - 1)
             / Bg_hw.Collective_net.io_node_count coll;
           p_mem_bytes = (Chip.params t.chip).Params.dram_bytes;
           p_clock_mhz = int_of_float (Cycles.frequency_hz /. 1e6);
         })
  | Sysreq.Brk target -> handle_brk t th target ret
  | Sysreq.Mmap { length; fd = Some fd; offset; map_copy = _; prot = _ } -> (
    (* File-backed mmap: CNK copies the data in at map time (§VI.A) and
       maps it read-write (page permissions are not honored, §IV.B.2). *)
    match Mmap_tracker.mmap p.tracker ~length with
    | Error e -> ret (Sysreq.R_err e)
    | Ok addr ->
      function_ship t th (Sysreq.Pread { fd; len = length; offset }) (fun reply ->
          (match reply with
          | Sysreq.R_bytes data -> (
            try
              let pa = translate t th Tlb.Store addr (max 1 (Bytes.length data)) in
              Mmap_tracker.mark_dirty p.tracker ~addr ~len:(Bytes.length data);
              Memory.write (memory t) ~addr:pa data
            with Fault _ -> ())
          | _ -> ());
          ret (Sysreq.R_int addr)))
  | Sysreq.Mprotect { addr; length; prot = _ } ->
    (* CNK does not change page permissions; it remembers the range and
       assumes it is the guard area for the next clone (Fig 4). *)
    Mmap_tracker.record_mprotect p.tracker ~addr ~length;
    ret Sysreq.R_unit
  | Sysreq.Shm_open { name; length } -> handle_shm_open t th name length ret
  | Sysreq.Query_map -> ret (Sysreq.R_map p.px.map.Mapping.regions)
  | Sysreq.Query_vtop va -> (
    try ret (Sysreq.R_int (translate t th Tlb.Load va 1))
    with Fault _ -> ret (Sysreq.R_err Errno.EFAULT))
  | Sysreq.Query_dirty { clear } ->
    let ranges = Mmap_tracker.dirty_ranges p.tracker in
    if clear then Mmap_tracker.clear_dirty p.tracker;
    ret (Sysreq.R_ranges ranges)
  | Sysreq.Dma_inject d -> (
    (* CNK maps the DMA unit into user space, so DCMF never issues
       these; the handlers exist for ABI completeness (the trap is the
       only cost — the static TLB map means nothing to translate or
       pin). *)
    match Dma.inject (Machine.dma t.machine t.rank) d with
    | Ok () -> ret Sysreq.R_unit
    | Error `Fifo_full -> ret (Sysreq.R_err Errno.EAGAIN))
  | Sysreq.Dma_poll op ->
    let engine = Machine.dma t.machine t.rank in
    (match op with
    | Sysreq.Dma_counter id -> ret (Sysreq.R_int (Dma.counter_value engine ~id))
    | Sysreq.Dma_recv -> ret (Sysreq.R_dma_packets (Dma.drain_recv engine)))
  | _ when Sysreq.is_file_io req ->
    if not t.nx.io_enabled then ret (Sysreq.R_err Errno.ENOSYS)
    else function_ship t th req ret
  | _ -> ret (Sysreq.R_err Errno.ENOSYS)

let policy =
  {
    read;
    write;
    read_word;
    write_word;
    clear_tid;
    fault;
    consume;
    switch_in = (fun t core th -> ctx_switch_cycles + remap_core_for t core th.proc);
    syscall_cycles = syscall_overhead;
    syscall;
    clone;
    hook;
  }

(* --- creation -------------------------------------------------------- *)

let create ?mapping_config machine ~rank ~ciod () =
  let chip = Machine.chip machine rank in
  let mapping_config =
    let base =
      match mapping_config with Some c -> c | None -> Mapping.default_config
    in
    { base with Mapping.dram_bytes = (Chip.params chip).Params.dram_bytes }
  in
  let persist_pool =
    Bg_hw.Page_size.align_up Bg_hw.Page_size.P1m mapping_config.Mapping.persist_bytes
  in
  let t =
    Kernel.create machine ~rank ~policy
      ~core:(fun _ -> { pending_ipi = 0; next_dac_slot = 0; remote_pid = None; mapped_pid = None })
      {
        ciod;
        mapping_config;
        persist =
          Persist.create
            ~pool_base_pa:(mapping_config.Mapping.dram_bytes - persist_pool)
            ~pool_bytes:persist_pool ~va_base:Mapping.persist_va;
        io_pending = Hashtbl.create 16;
        io_inflight = Hashtbl.create 16;
        io_seq = Hashtbl.create 16;
        io_enabled = true;
        syscalls = 0;
        strace = None;
        ipis = 0;
        exit_codes = [];
        layouts = [];
      }
  in
  Bg_cio.Ciod.register_node ciod ~rank ~deliver:(fun reply_bytes ->
      if (cio_config t).Reliable.enabled then deliver_reliable t reply_bytes
      else
        let hdr, reply =
          match Bg_cio.Proto.decode_reply reply_bytes with
          | Ok v -> v
          | Error e -> failwith ("Proto.decode_reply: " ^ Bg_cio.Proto.error_message e)
        in
        match Hashtbl.find_opt t.nx.io_pending hdr.Bg_cio.Proto.tid with
        | Some k ->
          Hashtbl.remove t.nx.io_pending hdr.Bg_cio.Proto.tid;
          k reply
        | None -> ());
  t

(* --- boot / reset ------------------------------------------------------ *)

let boot t ~on_ready =
  ignore
    (Sim.schedule_in (sim t) boot_cycles (fun () ->
         t.booted <- true;
         emit t L.boot (Chip.reset_count t.chip);
         on_ready ()))

let destroy_job t =
  Hashtbl.iter (fun _ (th : thread) -> th.state <- Zombie) t.threads;
  Hashtbl.reset t.threads;
  Hashtbl.reset t.procs;
  t.live_procs <- 0;
  Hashtbl.reset t.nx.io_pending;
  Hashtbl.iter (fun _ inf -> cancel_io_timer t inf) t.nx.io_inflight;
  Hashtbl.reset t.nx.io_inflight;
  Hashtbl.reset t.nx.io_seq;
  Array.iter
    (fun (c : core) ->
      c.current <- None;
      Queue.clear c.ready;
      c.penalty <- 0;
      c.cx.pending_ipi <- 0;
      c.cx.next_dac_slot <- 0;
      c.cx.remote_pid <- None;
      c.cx.mapped_pid <- None)
    t.cores;
  t.job_active <- false

let prepare_and_reset t ~reproducible ~on_ready =
  destroy_job t;
  t.booted <- false;
  ignore
    (Sim.schedule_in (sim t) prepare_reset_cycles (fun () ->
         (* All cores rendezvoused in boot SRAM; caches flushed to DDR. *)
         if reproducible then Dram.enter_self_refresh (Chip.dram t.chip);
         Chip.reset t.chip;
         emit t L.reset (Chip.reset_count t.chip);
         let restart = if reproducible then reproducible_restart_cycles else boot_cycles in
         ignore
           (Sim.schedule_in (sim t) restart (fun () ->
                if reproducible then Dram.exit_self_refresh (Chip.dram t.chip);
                t.booted <- true;
                emit t L.boot (Chip.reset_count t.chip);
                on_ready ()))))

(* --- job launch -------------------------------------------------------- *)

let core_sets mode total =
  match (mode : Job.mode) with
  | Job.Smp -> [ List.init total (fun i -> i) ]
  | Job.Dual -> [ [ 0; 1 ]; [ 2; 3 ] ]
  | Job.Vn -> List.init total (fun i -> [ i ])

(* Deterministic pseudo-contents standing in for the program image. *)
let text_pattern name len =
  let b = Bytes.create len in
  Rng.fill_bytes (Rng.create (Rng.seed_of_string name)) b;
  b

let image_pattern (image : Image.t) len = text_pattern image.Image.name len

(* Load the image text so scans and persist tests see real data. The
   write is deferred: no job reads its text, so the bytes are drawn only
   when something looks at them (a read, a capture, a scan). The draw
   holds the name, not the image, so a pending write in a DRAM kept
   through self-refresh does not keep a finished job alive. *)
let load_text t ~pid (image : Image.t) =
  let len = min image.Image.text_bytes 4096 in
  let name = image.Image.name and machine = t.machine in
  Memory.write_deferred (memory t)
    ~addr:(static_translate t ~pid Mapping.text_va)
    ~len
    (fun () -> Machine.launch_text machine ~name ~len (fun () -> text_pattern name len))

(* A map is a pure function of its config, and both it and the validated
   TLB entries are immutable, so every launch with the same config shares
   one copy. Exited processes stay in [procs] until the next reset, and a
   node that runs a thousand jobs of a few shapes would otherwise keep a
   thousand copies. A node's configs differ only in the four fields a job
   sets, so a launch looks its layout up by those and builds a config
   only for a shape it has not seen. A map whose entries do not all fit a
   core's TLB is refused here, before [launch] changes any state: CNK
   never evicts a static entry. *)
let rec find_layout ~nprocs ~text ~data ~shared = function
  | [] -> None
  | l :: rest ->
    let c = l.config in
    if
      c.Mapping.nprocs = nprocs && c.text_bytes = text && c.data_bytes = data
      && c.shared_bytes = shared
    then Some l
    else find_layout ~nprocs ~text ~data ~shared rest

let layout t ~nprocs (job : Job.t) =
  let text = job.Job.image.Image.text_bytes and data = job.Job.image.Image.data_bytes in
  let shared = job.Job.shared_bytes in
  match find_layout ~nprocs ~text ~data ~shared t.nx.layouts with
  | Some l -> Ok l
  | None -> (
    let config =
      {
        t.nx.mapping_config with
        Mapping.nprocs;
        text_bytes = text;
        data_bytes = data;
        shared_bytes = shared;
      }
    in
    match Mapping.compute config with
    | Error e -> Error e
    | Ok mapping -> (
      let static_tlbs =
        Array.map (fun pm -> Tlb.prepare (Mapping.tlb_entries pm)) mapping.Mapping.procs
      in
      let capacity = (Chip.params t.chip).Params.tlb_entries in
      let check acc m = Result.bind acc (fun () -> Tlb.check m ~capacity) in
      match Array.fold_left check (Ok ()) static_tlbs with
      | Error msg -> Error ("CNK static map install failed: " ^ msg)
      | Ok () ->
        let l = { config; mapping; static_tlbs } in
        t.nx.layouts <- l :: t.nx.layouts;
        Ok l))

let launch t (job : Job.t) =
  if not t.booted then Error "node not booted"
  else if t.job_active then Error "a job is already active"
  else begin
    let nprocs = Job.processes_per_node job.Job.mode in
    match layout t ~nprocs job with
    | Error e -> Error e
    | Ok { mapping; static_tlbs; _ } ->
      t.job_active <- true;
      t.nx.exit_codes <- [];
      let sets = core_sets job.Job.mode (Array.length t.cores) in
      Bg_cio.Ciod.job_start t.nx.ciod ~rank:t.rank
        ~pids:(List.init nprocs (fun i -> t.next_pid + i));
      List.iteri
        (fun i cores ->
          let pm = mapping.Mapping.procs.(i) in
          let tracker =
            Mmap_tracker.create ~base:pm.Mapping.heap_base
              ~bytes:pm.Mapping.heap_stack_bytes
              ~main_stack_bytes:t.nx.mapping_config.Mapping.main_stack_bytes
          in
          let p =
            new_proc t ~tracker (fun _ ->
                { map = pm; static_tlb = static_tlbs.(i); home_cores = cores; exit_code = 0; job })
          in
          (* Install the static TLB entries on every core of the process;
             [layout] has checked that they load without error. *)
          List.iter
            (fun core_id ->
              let tlb = (Chip.core t.chip core_id).Chip.tlb in
              ignore (Tlb.load tlb p.px.static_tlb : (unit, string) result);
              let now = Sim.now (sim t) in
              Obs.span_record_l (obs t) L.static_install ~rank:t.rank
                ~core:core_id ~start:now ~finish:now;
              t.cores.(core_id).cx.mapped_pid <- Some p.pid)
            cores;
          load_text t ~pid:p.pid job.Job.image;
          (* Main thread on the first core of the set. *)
          let main =
            spawn t p ~core_id:(List.hd cores) { is_main = true; guard = None; guard_slot = None }
          in
          let lo, hi = main_guard_range p in
          program_guard t main lo hi;
          start t main job.Job.image.Image.entry;
          (* Image load over the collective network gates thread start. *)
          let load_cycles =
            Bg_hw.Collective_net.estimate_cycles t.machine.Machine.collective
              ~bytes:job.Job.image.Image.file_bytes
          in
          ignore (Sim.schedule_in (sim t) load_cycles (fun () -> make_ready t main)))
        sets;
      emit t L.launch nprocs;
      Ok ()
  end

(* L1 parity error (SSV.B): the hardware detects a parity error in a core's
   L1; CNK signals the application on that core so it can recover in place
   instead of falling back to checkpoint/restart (the 2007 Gordon Bell
   usage). Returns false if no thread currently occupies the core. *)
let sigbus = 7

let inject_l1_parity_error t ~core =
  if core < 0 || core >= Array.length t.cores then invalid_arg "inject_l1_parity_error";
  match t.cores.(core).current with
  | Some th when th.state <> Zombie ->
    th.pending_sigs <- th.pending_sigs @ [ sigbus ];
    emit t L.l1_parity core;
    ras_note t Bg_obs.Rasdb.Warn (Printf.sprintf "L1 parity error on core %d" core);
    true
  | _ -> false

(* SSVIII extended thread affinity: allow [pid]'s pthreads to also run on
   [core], alternating with the core's own process. The feasibility check
   is the design tension the paper describes: both processes' static maps
   must be swappable within the core's TLB. *)
let designate_remote t ~core ~pid =
  if core < 0 || core >= Array.length t.cores then Error "no such core"
  else
    match Hashtbl.find_opt t.procs pid with
    | None -> Error "no such process"
    | Some p ->
      if List.mem core p.px.home_cores then Error "core already belongs to that process"
      else begin
        let capacity = (Chip.params t.chip).Params.tlb_entries in
        let needed = List.length p.px.map.Mapping.regions in
        if needed > capacity then Error "remote process map exceeds the TLB"
        else begin
          t.cores.(core).cx.remote_pid <- Some pid;
          emit t L.remote_affinity ((core * 100) + pid);
          Ok ()
        end
      end

let remote_designation t ~core =
  if core < 0 || core >= Array.length t.cores then None else t.cores.(core).cx.remote_pid

let job_killed =
  Machine.Note
    { from = Kernel; severity = Bg_obs.Rasdb.Warn; text = "job killed by the control system" }

(* Forcible job termination from the control system (walltime exceeded,
   operator action). Every live thread dies with code 137 (as a SIGKILL
   would report); completion fires normally so schedulers can proceed. *)
let kill_job t =
  if t.job_active then begin
    List.iter (fun (_, th) -> thread_exit t th 137) (sorted t.threads);
    ras t job_killed;
    emit t L.job_killed 0
  end

(* strace-style tracing: capture every syscall with cycle and tid. *)
let set_strace t enabled =
  t.nx.strace <- (if enabled then Some (Buffer.create 256) else None)

let strace_output t =
  match t.nx.strace with Some b -> Buffer.contents b | None -> ""

let add_core_penalty t ~core ~cycles =
  if core < 0 || core >= Array.length t.cores then invalid_arg "Node.add_core_penalty";
  t.cores.(core).penalty <- t.cores.(core).penalty + cycles

let scan_state t =
  let h = Chip.scan_state t.chip in
  let h = Fnv.add_int h t.nx.syscalls in
  let h = Fnv.add_int h t.nx.ipis in
  let h = Fnv.add_int h (live_threads t) in
  Fnv.add_int h (Sim.now (sim t))

(* Snapshot capture. Thread resume closures and in-flight I/O
   continuations cannot be serialized; their *shapes* (which tids hold
   one, pending timers, sequence numbers) are captured so a replayed run
   can be byte-verified against this state. *)
let capture t b =
  w_i b t.rank;
  w_b b t.booted;
  w_b b t.job_active;
  w_b b t.nx.io_enabled;
  w_i b t.next_pid;
  w_i b t.next_tid;
  w_i b t.nx.syscalls;
  w_i b t.nx.ipis;
  w_faults b t;
  w_list b
    (fun (pid, code) ->
      w_i b pid;
      w_i b code)
    (List.rev t.nx.exit_codes);
  w_list b
    (fun (pid, (p : proc)) ->
      w_i b pid;
      w_b b p.exited;
      w_i b p.px.exit_code;
      w_i b (List.length p.threads);
      w_list b (w_i b) p.px.home_cores;
      Mmap_tracker.capture p.tracker b)
    (sorted t.procs);
  w_list b
    (fun (tid, (th : thread)) ->
      w_i b tid;
      w_i b th.proc.pid;
      w_i b th.core_id;
      w_b b th.tx.is_main;
      w_i b (state_code th.state);
      w_b b (th.resume <> None);
      w_opt b th.clear_child_tid;
      w_list b (w_i b) th.pending_sigs;
      (match th.tx.guard with
      | None -> Buffer.add_uint8 b 0
      | Some (lo, hi) ->
        Buffer.add_uint8 b 1;
        w_i b lo;
        w_i b hi);
      w_opt b th.tx.guard_slot;
      w_b b th.futex_eintr)
    (sorted t.threads);
  Array.iter
    (fun (c : core) ->
      w_opt b (Option.map (fun (th : thread) -> th.tid) c.current);
      w_i b (Queue.length c.ready);
      Queue.iter (fun (th : thread) -> w_i b th.tid) c.ready;
      w_i b c.penalty;
      w_i b c.cx.pending_ipi;
      w_i b c.cx.next_dac_slot;
      w_opt b c.cx.remote_pid;
      w_opt b c.cx.mapped_pid)
    t.cores;
  w_list b (fun (tid, _) -> w_i b tid) (sorted t.nx.io_pending);
  w_list b
    (fun (tid, (inf : io_inflight)) ->
      w_i b tid;
      w_i b inf.io_seq;
      w_i b inf.io_pid;
      w_i b inf.io_core;
      w_i b inf.io_attempts;
      w_b b (inf.io_timer <> None);
      Buffer.add_int64_le b (Fnv.add_bytes Fnv.empty inf.io_frame))
    (sorted t.nx.io_inflight);
  w_list b
    (fun (tid, s) ->
      w_i b tid;
      w_i b s)
    (sorted t.nx.io_seq);
  Futex.capture t.futex b;
  w_list b
    (fun (r : Persist.region) ->
      w_s b r.Persist.name;
      w_i b r.Persist.va;
      w_i b r.Persist.pa;
      w_i b r.Persist.bytes;
      w_s b r.Persist.owner)
    (Persist.regions t.nx.persist);
  Chip.capture t.chip b
