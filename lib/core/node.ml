open Bg_engine
open Bg_hw
module Obs = Bg_obs.Obs
module Accounting = Bg_obs.Accounting
module Causal = Bg_obs.Causal
module Frame = Bg_cio.Frame
module Reliable = Bg_cio.Reliable

(* --- tunable kernel constants (cycles) ------------------------------ *)

let boot_cycles = 70_000
let reproducible_restart_cycles = 40_000
let prepare_reset_cycles = 12_000
let syscall_overhead = 120
let ctx_switch_cycles = 90
let guard_bytes = 64 * 1024
let ipi_latency = 300
let ipi_handler_cycles = 250
let sigsegv = 11

(* --- types ----------------------------------------------------------- *)

type thread_state = Running | Ready | Blocked | Zombie

type thread = {
  tid : int;
  proc : proc;
  core_id : int;
  is_main : bool;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;
  mutable clear_child_tid : int option;
  mutable pending_sigs : int list;
  mutable guard : (int * int) option;  (* DAC-watched range, (lo, hi) *)
  mutable guard_slot : int option;
  mutable futex_eintr : bool;  (* a signal interrupted the futex wait *)
}

and proc = {
  pid : int;
  map : Mapping.process_map;
  static_tlb : Tlb.static_map;  (* [map]'s entries, validated once *)
  tracker : Mmap_tracker.t;
  cores : int list;  (* cores this process owns *)
  handlers : (int, int -> unit) Hashtbl.t;
  mutable threads : thread list;
  mutable exited : bool;
  mutable exit_code : int;
  job : Job.t;
}

type core_state = {
  id : int;
  mutable current : thread option;
  ready : thread Queue.t;
  mutable pending_penalty : int;  (* injected interference (daemon noise) *)
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

type t = {
  machine : Machine.t;
  rank : int;
  chip : Chip.t;
  ciod : Bg_cio.Ciod.t;
  mapping_config : Mapping.config;
  cores : core_state array;
  persist : Persist.t;
  futex : Futex.t;
  procs : (int, proc) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  io_pending : (int, Sysreq.reply -> unit) Hashtbl.t;  (* tid -> resume *)
  io_inflight : (int, io_inflight) Hashtbl.t;  (* tid -> reliable in-flight *)
  io_seq : (int, int) Hashtbl.t;  (* tid -> next sequence number *)
  mutable next_pid : int;
  mutable next_tid : int;
  mutable booted : bool;
  mutable job_active : bool;
  mutable on_complete : (unit -> unit) option;
  mutable io_enabled : bool;
  mutable syscalls : int;
  mutable strace : Buffer.t option;
  mutable ipis : int;
  mutable faults : (int * string) list;
  mutable exit_codes : (int * int) list;
  mutable layouts : (Mapping.config * Mapping.t * Tlb.static_map array) list;
      (* one entry per layout config launched so far: its map and each
         process's validated static TLB entries *)
}

let sim t = t.machine.Machine.sim
let memory t = Chip.memory t.chip
let machine t = t.machine
let rank t = t.rank
let chip t = t.chip
let booted t = t.booted
let job_active t = t.job_active
let on_job_complete t f = t.on_complete <- Some f
let process_count t = Hashtbl.length t.procs
let syscall_count t = t.syscalls
let ipi_count t = t.ipis
let faults t = List.rev t.faults
let exit_codes t = List.rev t.exit_codes
let persist t = t.persist
let set_io_enabled t v = t.io_enabled <- v

let live_threads t =
  Hashtbl.fold (fun _ th acc -> if th.state <> Zombie then acc + 1 else acc) t.threads 0

let process_map t ~pid =
  Option.map (fun p -> p.map) (Hashtbl.find_opt t.procs pid)

let emit t label value =
  Sim.emit (sim t) ~label ~value:(Int64.of_int ((t.rank * 1_000_000) + value))

let obs t = t.machine.Machine.obs
let acct t = t.machine.Machine.acct
let causal t = t.machine.Machine.causal

(* Mint a causal node on this rank, program-order chained unless said
   otherwise. Returns [Causal.none] (and records nothing) when causal
   collection is off — carriers then ship context 0. *)
let causal_mint ?chain t ~cat ~name ~core =
  let c = causal t in
  if Causal.enabled c then
    Causal.mint c ?chain ~cat ~name ~rank:t.rank ~core ~now:(Sim.now (sim t)) ()
  else Causal.none

let acct_switch t ~core state =
  Accounting.switch (acct t) ~rank:t.rank ~core ~now:(Sim.now t.machine.Machine.sim) state

let ras t severity message =
  Obs.incr (obs t) ~rank:t.rank ~subsystem:"kernel" ~name:"ras_emitted" ();
  Machine.ras_emit t.machine ~rank:t.rank ~severity ~message

(* --- reliable CIO transport (CNK side) ------------------------------- *)

let cio_config t = Bg_cio.Ciod.config t.ciod

let cio_count t name = Obs.incr (obs t) ~rank:t.rank ~subsystem:"cio" ~name ()

let cancel_io_timer t inf =
  match inf.io_timer with
  | Some h ->
    Sim.cancel (sim t) h;
    inf.io_timer <- None
  | None -> ()

let drop_io_inflight t tid =
  match Hashtbl.find_opt t.io_inflight tid with
  | Some inf ->
    cancel_io_timer t inf;
    Hashtbl.remove t.io_inflight tid
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
      Obs.span_record o ~cat:"cio" ~name:"transit_request" ~rank:t.rank ~core ~start:sent
        ~finish:arrival_cycle;
      Bg_cio.Ciod.submit t.ciod payload)

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
  cio_count t "acks";
  Bg_hw.Collective_net.to_io_node t.machine.Machine.collective ~cn:t.rank ~payload:frame
    ~on_arrival:(fun ~payload ~arrival_cycle:_ -> Bg_cio.Ciod.submit t.ciod payload)

let deliver_reliable t reply_bytes =
  match Frame.decode reply_bytes with
  | Error _ -> cio_count t "corrupt_replies"
  | Ok f when f.Frame.kind <> Frame.Reply -> cio_count t "corrupt_replies"
  | Ok f -> (
    match Hashtbl.find_opt t.io_inflight f.Frame.tid with
    | Some inf when inf.io_seq = f.Frame.seq -> (
      match Bg_cio.Proto.decode_reply f.Frame.payload with
      | Error _ ->
        (* CRC passed but the inner payload is bad: treat as loss, the
           retransmission timer re-drives the request. *)
        cio_count t "corrupt_replies"
      | Ok (_hdr, reply) ->
        cancel_io_timer t inf;
        Hashtbl.remove t.io_inflight f.Frame.tid;
        (* Causal: the reply frame carries CIOD's service node; hang the
           delivery off it. A replayed cached reply carries the same
           node, so duplicates collapse onto one service execution. *)
        let r =
          causal_mint t ~cat:"cio" ~name:"reply.deliver" ~core:inf.io_core
        in
        Causal.link (causal t) Causal.Send_recv ~src:f.Frame.ctx ~dst:r;
        send_ack t ~pid:inf.io_pid ~tid:f.Frame.tid ~seq:f.Frame.seq;
        inf.io_ret reply)
    | _ ->
      (* No in-flight request at that seq: a duplicated or very late
         reply whose request already completed. *)
      cio_count t "stale_replies")

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
    {
      machine;
      rank;
      chip;
      ciod;
      mapping_config;
      cores =
        Array.init (Chip.params chip).Params.cores_per_node (fun id ->
            {
              id;
              current = None;
              ready = Queue.create ();
              pending_penalty = 0;
              pending_ipi = 0;
              next_dac_slot = 0;
              remote_pid = None;
              mapped_pid = None;
            });
      persist =
        Persist.create
          ~pool_base_pa:(mapping_config.Mapping.dram_bytes - persist_pool)
          ~pool_bytes:persist_pool ~va_base:Mapping.persist_va;
      futex = Futex.create ();
      procs = Hashtbl.create 4;
      threads = Hashtbl.create 16;
      io_pending = Hashtbl.create 16;
      io_inflight = Hashtbl.create 16;
      io_seq = Hashtbl.create 16;
      next_pid = 1;
      next_tid = 1;
      booted = false;
      job_active = false;
      on_complete = None;
      io_enabled = true;
      syscalls = 0;
      strace = None;
      ipis = 0;
      faults = [];
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
        match Hashtbl.find_opt t.io_pending hdr.Bg_cio.Proto.tid with
        | Some k ->
          Hashtbl.remove t.io_pending hdr.Bg_cio.Proto.tid;
          k reply
        | None -> ());
  t

(* --- memory access through the static map --------------------------- *)

exception Fault of string

let translate t (th : thread) access va len =
  let core = Chip.core t.chip th.core_id in
  match Tlb.translate core.Chip.tlb access va with
  | Tlb.Miss ->
    Obs.incr (obs t) ~rank:t.rank ~core:th.core_id ~subsystem:"tlb" ~name:"miss" ();
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
    match Mapping.region_for p.map va with
    | Some r -> r.Sysreq.paddr + (va - r.Sysreq.vaddr)
    | None -> (
      (* persistent regions are mapped va->pa linearly *)
      match
        List.find_opt
          (fun (r : Persist.region) -> va >= r.Persist.va && va < r.Persist.va + r.Persist.bytes)
          (Persist.regions t.persist)
      with
      | Some r -> r.Persist.pa + (va - r.Persist.va)
      | None -> invalid_arg (Printf.sprintf "Node: 0x%x unmapped" va)))

let read_virtual t ~pid ~addr ~len =
  let pa = static_translate t ~pid addr in
  Memory.read (memory t) ~addr:pa ~len

let write_virtual t ~pid ~addr data =
  let pa = static_translate t ~pid addr in
  Memory.write (memory t) ~addr:pa data

let read_word t (th : thread) va =
  let pa = translate t th Tlb.Load va 8 in
  Int64.to_int (Memory.read_int64 (memory t) ~addr:pa)

let write_word t (th : thread) va v =
  let pa = translate t th Tlb.Store va 8 in
  Mmap_tracker.mark_dirty th.proc.tracker ~addr:va ~len:8;
  Memory.write_int64 (memory t) ~addr:pa (Int64.of_int v)

(* --- DRAM refresh stretch -------------------------------------------- *)

(* The residual noise floor: a consume spanning k refresh windows pays k
   short stalls. Deterministic in absolute time. *)
let refresh_stretch t start n =
  let p = Chip.params t.chip in
  let interval = p.Params.dram_refresh_interval_cycles in
  let stall = p.Params.dram_refresh_stall_cycles in
  if interval <= 0 then n
  else begin
    let k = ((start + n) / interval) - (start / interval) in
    n + (k * stall)
  end

(* --- guard pages ------------------------------------------------------ *)

let dac_of t (th : thread) = (Chip.core t.chip th.core_id).Chip.dac

let program_guard t (th : thread) lo hi =
  let core = t.cores.(th.core_id) in
  let slot =
    match th.guard_slot with
    | Some s -> s
    | None ->
      let s = core.next_dac_slot in
      core.next_dac_slot <- (s + 1) mod Dac.registers;
      th.guard_slot <- Some s;
      s
  in
  th.guard <- Some (lo, hi);
  Dac.set (dac_of t th) ~slot (Some { Dac.lo; hi; on_store = true; on_load = false });
  emit t "cnk.guard" th.tid

let clear_guard t (th : thread) =
  match th.guard_slot with
  | Some slot ->
    Dac.set (dac_of t th) ~slot None;
    th.guard <- None
  | None -> ()

(* The main-thread guard sits on the heap boundary: [brk, brk+guard). *)
let main_guard_range (p : proc) =
  let brk = Mmap_tracker.heap_end p.tracker in
  let hi = min (brk + guard_bytes) (Mmap_tracker.main_stack_lo p.tracker) in
  (brk, hi)

(* --- scheduler -------------------------------------------------------- *)

(* SSVIII extended affinity: running a remote process's pthread requires the
   core to hold that process's static map. Swapping costs a full flush +
   reinstall — the price of bending the one-process-per-core rule while
   keeping the static-TLB design. *)
let tlb_swap_cycles_per_entry = 30

let remap_core_for t core (p : proc) =
  if core.mapped_pid = Some p.pid then 0
  else begin
    let tlb = (Chip.core t.chip core.id).Chip.tlb in
    (match Tlb.load tlb p.static_tlb with
    | Ok () -> ()
    | Error msg -> failwith ("CNK remote-map install failed: " ^ msg));
    core.mapped_pid <- Some p.pid;
    emit t "cnk.tlb_swap" ((core.id * 100) + p.pid);
    let cost = tlb_swap_cycles_per_entry * List.length p.map.Mapping.regions in
    let now = Sim.now (sim t) in
    Obs.span_record (obs t) ~cat:"tlb" ~name:"map_swap" ~rank:t.rank ~core:core.id
      ~start:now ~finish:(now + cost);
    Obs.incr (obs t) ~rank:t.rank ~core:core.id ~subsystem:"tlb" ~name:"map_swap" ();
    cost
  end

let rec dispatch t core =
  match core.current with
  | Some _ -> ()
  | None -> (
    match Queue.take_opt core.ready with
    | None -> ()
    | Some th ->
      if th.state = Zombie then dispatch t core
      else begin
        core.current <- Some th;
        th.state <- Running;
        (* context switch + any map swap is kernel overhead; the thread's
           own cycles start when the resume fires *)
        acct_switch t ~core:core.id Accounting.Kernel;
        let swap = remap_core_for t core th.proc in
        let resume = th.resume in
        th.resume <- None;
        ignore
          (Sim.schedule_in (sim t) (ctx_switch_cycles + swap) (fun () ->
               if th.state = Running then begin
                 acct_switch t ~core:core.id Accounting.App;
                 match resume with Some k -> k () | None -> ()
               end))
      end)

let core_idle t (core : core_state) =
  if core.current = None && Queue.is_empty core.ready then
    acct_switch t ~core:core.id Accounting.Idle

let release_core t (th : thread) =
  let core = t.cores.(th.core_id) in
  (match core.current with
  | Some cur when cur.tid = th.tid -> core.current <- None
  | _ -> ());
  dispatch t core;
  core_idle t core

(* A thread can die while an event that would wake it is already in
   flight (e.g. the control system kills a job during image load, SSV.B);
   waking a Zombie would occupy its core forever with no continuation. *)
let make_ready t (th : thread) =
  if th.state <> Zombie then begin
    let core = t.cores.(th.core_id) in
    th.state <- Ready;
    Queue.push th core.ready;
    dispatch t core
  end

(* --- thread lifecycle ------------------------------------------------- *)

(* Surface the hardware's own event counters (TLB miss, DAC violation)
   into the metrics registry as per-core gauges. *)
let publish_hw_gauges t =
  let o = obs t in
  if Obs.enabled o then
    Array.iter
      (fun (core : core_state) ->
        let hw = Chip.core t.chip core.id in
        Obs.set_gauge o ~rank:t.rank ~core:core.id ~subsystem:"tlb" ~name:"hw_misses"
          (Tlb.misses hw.Chip.tlb);
        Obs.set_gauge o ~rank:t.rank ~core:core.id ~subsystem:"dac" ~name:"hw_violations"
          (Dac.violations hw.Chip.dac))
      t.cores;
  if Obs.enabled o then
    List.iter
      (fun (r : Upc.reading) ->
        Obs.set_gauge o ~rank:t.rank ~core:r.Upc.core ~subsystem:"upc"
          ~name:(Upc.event_name r.Upc.event) r.Upc.count)
      (Upc.snapshot (Chip.upc t.chip));
  Machine.publish_net_gauges t.machine ~rank:t.rank

let check_job_done t =
  if t.job_active then begin
    let all_exited = Hashtbl.fold (fun _ p acc -> acc && p.exited) t.procs true in
    if all_exited && Hashtbl.length t.procs > 0 then begin
      t.job_active <- false;
      publish_hw_gauges t;
      Bg_cio.Ciod.job_end t.ciod ~rank:t.rank;
      emit t "cnk.job_done" 0;
      match t.on_complete with
      | Some f ->
        t.on_complete <- None;
        f ()
      | None -> ()
    end
  end

let rec thread_exit t (th : thread) code =
  if th.state <> Zombie then begin
    th.state <- Zombie;
    th.resume <- None;
    clear_guard t th;
    Hashtbl.remove t.io_pending th.tid;
    drop_io_inflight t th.tid;
    Hashtbl.remove t.io_seq th.tid;
    ignore (Futex.remove t.futex ~tid:th.tid);
    emit t "cnk.thread_exit" th.tid;
    (* CLONE_CHILD_CLEARTID: zero the tid word and wake one joiner. The
       kernel writes through the process's static map directly -- the
       thread's core TLB may hold a remote process's map (SSVIII). *)
    (match th.clear_child_tid with
    | Some addr ->
      (try
         let pa = static_translate t ~pid:th.proc.pid addr in
         Memory.write_int64 (memory t) ~addr:pa 0L;
         ignore (wake_futex t th.proc addr 1)
       with Fault _ | Invalid_argument _ -> ())
    | None -> ());
    th.proc.threads <- List.filter (fun x -> x.tid <> th.tid) th.proc.threads;
    release_core t th;
    if th.proc.threads = [] && not th.proc.exited then begin
      th.proc.exited <- true;
      th.proc.exit_code <- code;
      t.exit_codes <- (th.proc.pid, code) :: t.exit_codes;
      emit t "cnk.proc_exit" th.proc.pid;
      check_job_done t
    end
  end

and wake_futex t (p : proc) addr count =
  let tids = Futex.wake t.futex ~pid:p.pid ~addr ~count in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.threads tid with
      | Some th when th.state = Blocked -> make_ready t th
      | _ -> ())
    tids;
  List.length tids

(* --- signals ----------------------------------------------------------- *)

(* Handlers are kernel-invoked closures (effect-free); a fatal signal with
   no handler kills the thread. Returns [true] if the thread survived. *)
let deliver_signals t (th : thread) =
  let pending = List.rev th.pending_sigs in
  th.pending_sigs <- [];
  List.for_all
    (fun signo ->
      match Hashtbl.find_opt th.proc.handlers signo with
      | Some h ->
        emit t "cnk.signal" ((th.tid * 100) + signo);
        h signo;
        true
      | None ->
        t.faults <- (th.tid, Printf.sprintf "unhandled signal %d" signo) :: t.faults;
        ras t Machine.Ras_error
          (Printf.sprintf "tid %d killed by unhandled signal %d" th.tid signo);
        thread_exit t th signo;
        false)
    pending

(* --- the step driver --------------------------------------------------- *)

let rec step_thread t (th : thread) (s : Coro.step) =
  if th.state = Zombie then ()
  else
    match s with
    | Coro.Finished -> thread_exit t th 0
    | Coro.Crashed e ->
      t.faults <- (th.tid, Printexc.to_string e) :: t.faults;
      ras t Machine.Ras_error
        (Printf.sprintf "tid %d crashed: %s" th.tid (Printexc.to_string e));
      thread_exit t th 1
    | Coro.Rdtsc k -> step_thread t th (k (Sim.now (sim t)))
    | Coro.Yield k ->
      th.resume <- Some (fun () -> step_thread t th (k ()));
      let core = t.cores.(th.core_id) in
      (match core.current with
      | Some cur when cur.tid = th.tid -> core.current <- None
      | _ -> ());
      Queue.push th core.ready;
      th.state <- Ready;
      dispatch t core
    | Coro.Consume (n, k) ->
      let core = t.cores.(th.core_id) in
      let penalty = core.pending_penalty in
      core.pending_penalty <- 0;
      let ipi = core.pending_ipi in
      core.pending_ipi <- 0;
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
               if deliver_signals t th then step_thread t th (k ())
             end))
    | Coro.Load (addr, len, k) -> (
      try
        let pa = translate t th Tlb.Load addr len in
        Cache.access (Chip.l2 t.chip) pa;
        step_thread t th (k (Memory.read (memory t) ~addr:pa ~len))
      with Fault reason -> fault_thread t th reason)
    | Coro.Store (addr, data, k) -> (
      let len = Bytes.length data in
      match Dac.check_store (dac_of t th) ~addr with
      | Some _ ->
        (* Guard hit: SIGSEGV. With a handler the store is dropped and the
           thread continues; without one the thread dies. *)
        th.pending_sigs <- th.pending_sigs @ [ sigsegv ];
        emit t "cnk.guard_hit" th.tid;
        Obs.incr (obs t) ~rank:t.rank ~core:th.core_id ~subsystem:"dac" ~name:"violation" ();
        ras t Machine.Ras_warn
          (Printf.sprintf "DAC guard hit by tid %d at 0x%x" th.tid addr);
        if deliver_signals t th then step_thread t th (k ())
      | None -> (
        try
          let pa = translate t th Tlb.Store addr len in
          Cache.access (Chip.l2 t.chip) pa;
          Mmap_tracker.mark_dirty th.proc.tracker ~addr ~len;
          Memory.write (memory t) ~addr:pa data;
          step_thread t th (k ())
        with Fault reason -> fault_thread t th reason))
    | Coro.Cas (addr, expected, desired, k) -> (
      try
        let v = read_word t th addr in
        if v = expected then write_word t th addr desired;
        step_thread t th (k (v = expected))
      with Fault reason -> fault_thread t th reason)
    | Coro.Fetch_add (addr, delta, k) -> (
      try
        let v = read_word t th addr in
        write_word t th addr (v + delta);
        step_thread t th (k v)
      with Fault reason -> fault_thread t th reason)
    | Coro.Syscall (req, k) ->
      t.syscalls <- t.syscalls + 1;
      (match t.strace with
      | Some buf ->
        Buffer.add_string buf
          (Format.asprintf "[%d] tid %d: %a@." (Sim.now (sim t)) th.tid Sysreq.pp_request req)
      | None -> ());
      emit t "cnk.syscall" ((th.tid * 1000) + (Sysreq.request_name_hash req mod 1000));
      let k = instrument_syscall t th req k in
      let k = account_syscall t th req k in
      ignore
        (Sim.schedule_in (sim t) syscall_overhead (fun () ->
             if th.state <> Zombie then handle_syscall t th req k))

(* Wrap a syscall continuation so the dispatch-to-reply interval lands in
   the observability layer: a "syscall" span plus a per-kind latency
   timer. Purely passive — no events, no RNG — so the architectural trace
   digest is unchanged whether collection is on or off. Exit syscalls
   never return, so they get no span. *)
and instrument_syscall t (th : thread) req k =
  let o = obs t in
  let c = causal t in
  if not (Obs.enabled o || Causal.enabled c) then k
  else
    match req with
    | Sysreq.Exit_thread _ | Sysreq.Exit_group _ -> k
    | _ ->
      let name = Sysreq.request_name req in
      let start = Sim.now (sim t) in
      let h =
        if Obs.enabled o then
          Some (Obs.span_begin o ~cat:"syscall" ~name ~rank:t.rank ~core:th.core_id ~now:start)
        else None
      in
      (* Causal: entry and exit are program-order chained on this core's
         lane, so whatever the syscall caused in between (a function
         ship, a DMA injection) hangs between two anchors. *)
      ignore (causal_mint t ~cat:"syscall" ~name:(Sysreq.request_entry_name req) ~core:th.core_id);
      fun reply ->
        let now = Sim.now (sim t) in
        (match h with
        | Some h ->
          Obs.span_end o h ~now;
          Obs.observe_cycles o ~rank:t.rank ~subsystem:"syscall" ~name (now - start);
          Obs.incr o ~rank:t.rank ~core:th.core_id ~subsystem:"syscall" ~name ()
        | None -> ());
        ignore (causal_mint t ~cat:"syscall" ~name:(Sysreq.request_exit_name req) ~core:th.core_id);
        k reply

(* Charge trap-to-reply to [Syscall] in the cycle ledger. Exit syscalls
   never reply; their cycles end with the thread. *)
and account_syscall t (th : thread) req k =
  match req with
  | Sysreq.Exit_thread _ | Sysreq.Exit_group _ -> k
  | _ ->
    acct_switch t ~core:th.core_id Accounting.Syscall;
    fun reply ->
      acct_switch t ~core:th.core_id Accounting.App;
      k reply

and fault_thread t (th : thread) reason =
  t.faults <- (th.tid, reason) :: t.faults;
  thread_exit t th sigsegv

and finish t th k reply = step_thread t th (k reply)

(* --- syscall implementation -------------------------------------------- *)

and handle_syscall t (th : thread) (req : Sysreq.request) k =
  let p = th.proc in
  let ret reply = finish t th k reply in
  match req with
  | Sysreq.Getpid -> ret (Sysreq.R_int p.pid)
  | Sysreq.Gettid -> ret (Sysreq.R_int th.tid)
  | Sysreq.Get_rank -> ret (Sysreq.R_int t.rank)
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
  | Sysreq.Gettimeofday ->
    ret (Sysreq.R_int (int_of_float (Cycles.to_us (Sim.now (sim t)))))
  | Sysreq.Brk target -> handle_brk t th target ret
  | Sysreq.Mmap { length; fd = None; _ } -> (
    match Mmap_tracker.mmap p.tracker ~length with
    | Ok addr -> ret (Sysreq.R_int addr)
    | Error e -> ret (Sysreq.R_err e))
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
  | Sysreq.Munmap { addr; length } -> (
    match Mmap_tracker.munmap p.tracker ~addr ~length with
    | Ok () -> ret Sysreq.R_unit
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Mprotect { addr; length; prot = _ } ->
    (* CNK does not change page permissions; it remembers the range and
       assumes it is the guard area for the next clone (Fig 4). *)
    Mmap_tracker.record_mprotect p.tracker ~addr ~length;
    ret Sysreq.R_unit
  | Sysreq.Shm_open { name; length } -> handle_shm_open t th name length ret
  | Sysreq.Query_map -> ret (Sysreq.R_map p.map.Mapping.regions)
  | Sysreq.Query_vtop va -> (
    try ret (Sysreq.R_int (translate t th Tlb.Load va 1))
    with Fault _ -> ret (Sysreq.R_err Errno.EFAULT))
  | Sysreq.Query_dirty { clear } ->
    let ranges = Mmap_tracker.dirty_ranges p.tracker in
    if clear then Mmap_tracker.clear_dirty p.tracker;
    ret (Sysreq.R_ranges ranges)
  | Sysreq.Set_tid_address addr ->
    th.clear_child_tid <- Some addr;
    ret (Sysreq.R_int th.tid)
  | Sysreq.Clone { flags; stack_hint = _; tls = _; parent_tid_addr; child_tid_addr; entry } ->
    handle_clone t th ~flags ~parent_tid_addr ~child_tid_addr ~entry ret
  | Sysreq.Exit_thread code -> thread_exit t th code
  | Sysreq.Exit_group code ->
    List.iter (fun other -> thread_exit t other code)
      (List.filter (fun x -> x.tid <> th.tid) p.threads);
    thread_exit t th code
  | Sysreq.Sigaction { signo; handler } ->
    (match handler with
    | Some h -> Hashtbl.replace p.handlers signo h
    | None -> Hashtbl.remove p.handlers signo);
    ret Sysreq.R_unit
  | Sysreq.Tgkill { tid; signo } -> handle_tgkill t th tid signo ret
  | Sysreq.Sched_yield ->
    th.resume <- Some (fun () -> ret (Sysreq.R_int 0));
    let core = t.cores.(th.core_id) in
    (match core.current with
    | Some cur when cur.tid = th.tid -> core.current <- None
    | _ -> ());
    th.state <- Ready;
    Queue.push th core.ready;
    dispatch t core
  | Sysreq.Futex_wait { addr; expected } -> (
    match read_word t th addr with
    | exception Fault _ -> ret (Sysreq.R_err Errno.EFAULT)
    | v ->
      if v <> expected then ret (Sysreq.R_err Errno.EAGAIN)
      else begin
        Futex.enqueue t.futex ~pid:p.pid ~addr ~tid:th.tid;
        th.state <- Blocked;
        th.resume <-
          Some
            (fun () ->
              if deliver_signals t th then
                if th.futex_eintr then begin
                  th.futex_eintr <- false;
                  ret (Sysreq.R_err Errno.EINTR)
                end
                else ret (Sysreq.R_int 0));
        release_core t th
      end)
  | Sysreq.Futex_wake { addr; count } -> ret (Sysreq.R_int (wake_futex t p addr count))
  | Sysreq.Query_perf op ->
    let upc = Chip.upc t.chip in
    (match op with
    | Sysreq.Perf_start ->
      Upc.start upc;
      ret Sysreq.R_unit
    | Sysreq.Perf_stop ->
      Upc.stop upc;
      ret Sysreq.R_unit
    | Sysreq.Perf_freeze ->
      Upc.freeze upc;
      ret Sysreq.R_unit
    | Sysreq.Perf_read ->
      let readings =
        match Upc.frozen_snapshot upc with
        | Some rs -> rs
        | None -> Upc.snapshot upc
      in
      ret
        (Sysreq.R_perf
           (List.map
              (fun (r : Upc.reading) ->
                { Sysreq.pr_event = r.Upc.event; pr_core = r.Upc.core; pr_count = r.Upc.count })
              readings)))
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
    if not t.io_enabled then ret (Sysreq.R_err Errno.ENOSYS)
    else function_ship t th req ret
  | _ -> ret (Sysreq.R_err Errno.ENOSYS)

and handle_brk t (th : thread) target ret =
  let p = th.proc in
  let old_brk = Mmap_tracker.heap_end p.tracker in
  match Mmap_tracker.brk p.tracker target with
  | Error e -> ret (Sysreq.R_err e)
  | Ok new_brk ->
    if new_brk > old_brk then reposition_main_guard t th;
    ret (Sysreq.R_int new_brk)

(* Heap grew: the main-thread guard must move above the new break. If the
   grower runs on a different core than the main thread, CNK sends an IPI
   (paper Fig 4); same-core updates are free. *)
and reposition_main_guard t (th : thread) =
  match List.find_opt (fun x -> x.is_main && x.state <> Zombie) th.proc.threads with
  | None -> ()
  | Some main ->
    let lo, hi = main_guard_range th.proc in
    if main.core_id = th.core_id then program_guard t main lo hi
    else begin
      t.ipis <- t.ipis + 1;
      emit t "cnk.ipi" main.core_id;
      let send_ctx = causal_mint t ~cat:"ipi" ~name:"ipi.send" ~core:th.core_id in
      let core = t.cores.(main.core_id) in
      ignore
        (Sim.schedule_in (sim t) ipi_latency (fun () ->
             core.pending_ipi <- core.pending_ipi + ipi_handler_cycles;
             (* Causal: cross-core interrupt — the sender caused the
                handler to run on the main thread's core. *)
             let recv_ctx =
               causal_mint t ~cat:"ipi" ~name:"ipi.handle" ~core:main.core_id
             in
             Causal.link (causal t) Causal.Parent_child ~src:send_ctx ~dst:recv_ctx;
             if main.state <> Zombie then program_guard t main lo hi))
    end

and handle_shm_open t (th : thread) name length ret =
  match
    Persist.open_region t.persist ~name ~bytes:length ~owner:th.proc.job.Job.user
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
      th.proc.cores;
    ret (Sysreq.R_int r.Persist.va)

and handle_clone t (th : thread) ~flags ~parent_tid_addr ~child_tid_addr ~entry ret =
  (* glibc's NPTL passes one fixed flag set; CNK validates against it
     and rejects anything else (§IV.B.1). *)
  if flags <> Sysreq.nptl_clone_flags then ret (Sysreq.R_err Errno.EINVAL)
  else begin
      let p = th.proc in
      let limit = p.job.Job.threads_per_core in
      let load core_id =
        List.length (List.filter (fun x -> x.core_id = core_id && x.state <> Zombie) p.threads)
      in
      (* SSVIII: cores designated with this process as their remote may host
         at most one of its pthreads, after the core's own threads *)
      let remote_candidates =
        Array.to_list t.cores
        |> List.filter_map (fun c ->
               if c.remote_pid = Some p.pid && not (List.mem c.id p.cores) && load c.id < 1
               then Some c.id
               else None)
      in
      let candidates = List.filter (fun c -> load c < limit) p.cores @ remote_candidates in
      match candidates with
      | [] -> ret (Sysreq.R_err Errno.EAGAIN)
      | _ ->
        let core_id =
          List.fold_left
            (fun best c -> if load c < load best then c else best)
            (List.hd candidates) (List.tl candidates)
        in
        let tid = t.next_tid in
        t.next_tid <- tid + 1;
        let child =
          {
            tid;
            proc = p;
            core_id;
            is_main = false;
            state = Ready;
            resume = None;
            clear_child_tid = (if child_tid_addr <> 0 then Some child_tid_addr else None);
            pending_sigs = [];
            guard = None;
            guard_slot = None;
            futex_eintr = false;
          }
        in
        Hashtbl.add t.threads tid child;
        p.threads <- child :: p.threads;
        (* The last mprotect before clone defines the child's stack guard. *)
        (match Mmap_tracker.last_mprotect p.tracker with
        | Some (lo, len) -> program_guard t child lo (lo + len)
        | None -> ());
        (* CLONE_PARENT_SETTID / CLONE_CHILD_SETTID: the kernel publishes
           the tid in both words before the child can run or exit, so a
           joiner never sees a stale zero-then-set window. *)
        if parent_tid_addr <> 0 then (try write_word t th parent_tid_addr tid with Fault _ -> ());
        if child_tid_addr <> 0 then (try write_word t th child_tid_addr tid with Fault _ -> ());
        child.resume <- Some (fun () -> step_thread t child (Coro.start entry));
        emit t "cnk.clone" tid;
        make_ready t child;
        ret (Sysreq.R_int tid)
  end

and handle_tgkill t (_th : thread) tid signo ret =
  match Hashtbl.find_opt t.threads tid with
  | None -> ret (Sysreq.R_err Errno.ESRCH)
  | Some target when target.state = Zombie -> ret (Sysreq.R_err Errno.ESRCH)
  | Some target ->
    target.pending_sigs <- target.pending_sigs @ [ signo ];
    (* A signal interrupts a futex wait with EINTR, as Linux does. *)
    if target.state = Blocked && Futex.remove t.futex ~tid then begin
      target.futex_eintr <- true;
      make_ready t target
    end;
    ret Sysreq.R_unit

and function_ship t (th : thread) req ret =
  if (cio_config t).Reliable.enabled then function_ship_reliable t th req ret
  else begin
    let hdr = { Bg_cio.Proto.rank = t.rank; pid = th.proc.pid; tid = th.tid } in
    let data = Bg_cio.Proto.encode_request hdr req in
    (* Causal, legacy transport: bare Proto bytes have no context field,
       so the context rides the reply closure instead of the wire. *)
    let q = causal_mint t ~cat:"cio" ~name:"ship.request" ~core:th.core_id in
    let ret =
      if q = Causal.none then ret
      else
        fun reply ->
          let r = causal_mint t ~cat:"cio" ~name:"reply.deliver" ~core:th.core_id in
          Causal.link (causal t) Causal.Request_reply ~src:q ~dst:r;
          ret reply
    in
    Hashtbl.replace t.io_pending th.tid ret;
    emit t "cnk.fship" th.tid;
    let o = obs t in
    Obs.incr o ~rank:t.rank ~subsystem:"cio" ~name:"ship_requests" ();
    Obs.incr o ~rank:t.rank ~subsystem:"cio" ~name:"ship_bytes" ~by:(Bytes.length data) ();
    (* Round-trip breakdown, part 1: request marshalling is instantaneous in
       sim time, so the first shipped leg is the collective-network transit
       up to the I/O node; CIOD itself records service and reply legs. *)
    let h =
      Obs.span_begin o ~cat:"cio" ~name:"transit_request" ~rank:t.rank ~core:th.core_id
        ~now:(Sim.now (sim t))
    in
    (* The thread keeps its core and spins until the reply (§VI.C): no
       context switch happens during an I/O system call. *)
    Bg_hw.Collective_net.to_io_node t.machine.Machine.collective ~cn:t.rank
      ~payload:data ~on_arrival:(fun ~payload ~arrival_cycle:_ ->
        Obs.span_end o h ~now:(Sim.now (sim t));
        Bg_cio.Ciod.submit t.ciod payload)
  end

(* Reliable mode: the request is CRC-framed with a per-thread sequence
   number, retransmitted on timeout with exponential backoff, and fails
   the syscall with EIO (plus a RAS event) once the retry budget is gone.
   The thread still spins on its core throughout — retries cost wall-clock
   cycles, not context switches. *)
and function_ship_reliable t (th : thread) req ret =
  let cfg = cio_config t in
  let hdr = { Bg_cio.Proto.rank = t.rank; pid = th.proc.pid; tid = th.tid } in
  let payload = Bg_cio.Proto.encode_request hdr req in
  let seq = Option.value (Hashtbl.find_opt t.io_seq th.tid) ~default:0 in
  Hashtbl.replace t.io_seq th.tid (seq + 1);
  (* Causal: the request context is baked into the encoded frame, and
     retransmission resends [io_frame] byte-for-byte — so every copy of
     this request carries the SAME context, and CIOD records one
     request->reply edge no matter how many copies arrive. *)
  let q = causal_mint t ~cat:"cio" ~name:"ship.request" ~core:th.core_id in
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
  Hashtbl.replace t.io_inflight th.tid inf;
  emit t "cnk.fship" th.tid;
  let o = obs t in
  Obs.incr o ~rank:t.rank ~subsystem:"cio" ~name:"ship_requests" ();
  Obs.incr o ~rank:t.rank ~subsystem:"cio" ~name:"ship_bytes" ~by:(Bytes.length frame) ();
  let rec send () =
    send_frame_up t ~core:th.core_id inf.io_frame;
    arm ()
  and arm () =
    let delay = Reliable.rto cfg ~attempt:inf.io_attempts in
    inf.io_timer <- Some (Sim.schedule_in (sim t) delay on_timeout)
  and on_timeout () =
    inf.io_timer <- None;
    match Hashtbl.find_opt t.io_inflight th.tid with
    | Some i when i == inf ->
      if inf.io_attempts >= cfg.Reliable.retry_budget then begin
        Hashtbl.remove t.io_inflight th.tid;
        cio_count t "eio";
        emit t "cnk.fship_eio" th.tid;
        ras t Machine.Ras_error
          (Printf.sprintf "CIO rank=%d tid=%d seq=%d: retry budget exhausted, EIO"
             t.rank th.tid seq);
        ret (Sysreq.R_err Errno.EIO)
      end
      else begin
        inf.io_attempts <- inf.io_attempts + 1;
        cio_count t "retransmits";
        emit t "cnk.fship_retry" th.tid;
        send ()
      end
    | _ -> ()
  in
  send ()

(* --- boot / reset ------------------------------------------------------ *)

let boot t ~on_ready =
  ignore
    (Sim.schedule_in (sim t) boot_cycles (fun () ->
         t.booted <- true;
         emit t "cnk.boot" (Chip.reset_count t.chip);
         on_ready ()))

let destroy_job t =
  Hashtbl.iter (fun _ th -> th.state <- Zombie) t.threads;
  Hashtbl.reset t.threads;
  Hashtbl.reset t.procs;
  Hashtbl.reset t.io_pending;
  Hashtbl.iter (fun _ inf -> cancel_io_timer t inf) t.io_inflight;
  Hashtbl.reset t.io_inflight;
  Hashtbl.reset t.io_seq;
  Array.iter
    (fun c ->
      c.current <- None;
      Queue.clear c.ready;
      c.pending_penalty <- 0;
      c.pending_ipi <- 0;
      c.next_dac_slot <- 0;
      c.remote_pid <- None;
      c.mapped_pid <- None)
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
         emit t "cnk.reset" (Chip.reset_count t.chip);
         let restart = if reproducible then reproducible_restart_cycles else boot_cycles in
         ignore
           (Sim.schedule_in (sim t) restart (fun () ->
                if reproducible then Dram.exit_self_refresh (Chip.dram t.chip);
                t.booted <- true;
                emit t "cnk.boot" (Chip.reset_count t.chip);
                on_ready ()))))

(* --- job launch -------------------------------------------------------- *)

let core_sets mode total =
  match (mode : Job.mode) with
  | Job.Smp -> [ List.init total (fun i -> i) ]
  | Job.Dual -> [ [ 0; 1 ]; [ 2; 3 ] ]
  | Job.Vn -> List.init total (fun i -> [ i ])

(* Deterministic pseudo-contents standing in for the program image. *)
let image_pattern (image : Image.t) len =
  let b = Bytes.create len in
  Rng.fill_bytes (Rng.create (Rng.seed_of_string image.Image.name)) b;
  b

(* A map is a pure function of its config, and both it and the validated
   TLB entries are immutable, so every launch with the same config shares
   one copy. Exited processes stay in [procs] until the next reset, and a
   node that runs a thousand jobs of a few shapes would otherwise keep a
   thousand copies. *)
let layout t config =
  match List.find_opt (fun (c, _, _) -> c = config) t.layouts with
  | Some (_, mapping, static_tlbs) -> Ok (mapping, static_tlbs)
  | None -> (
    match Mapping.compute config with
    | Error e -> Error e
    | Ok mapping ->
      let static_tlbs =
        Array.map (fun pm -> Tlb.prepare (Mapping.tlb_entries pm)) mapping.Mapping.procs
      in
      t.layouts <- (config, mapping, static_tlbs) :: t.layouts;
      Ok (mapping, static_tlbs))

let launch t (job : Job.t) =
  if not t.booted then Error "node not booted"
  else if t.job_active then Error "a job is already active"
  else begin
    let nprocs = Job.processes_per_node job.Job.mode in
    let config =
      {
        t.mapping_config with
        Mapping.nprocs;
        text_bytes = job.Job.image.Image.text_bytes;
        data_bytes = job.Job.image.Image.data_bytes;
        shared_bytes = job.Job.shared_bytes;
      }
    in
    match layout t config with
    | Error e -> Error e
    | Ok (mapping, static_tlbs) ->
      t.job_active <- true;
      t.exit_codes <- [];
      let sets = core_sets job.Job.mode (Array.length t.cores) in
      Bg_cio.Ciod.job_start t.ciod ~rank:t.rank
        ~pids:(List.init nprocs (fun i -> t.next_pid + i));
      List.iteri
        (fun i cores ->
          let pm = mapping.Mapping.procs.(i) in
          let pid = t.next_pid in
          t.next_pid <- pid + 1;
          let tracker =
            Mmap_tracker.create ~base:pm.Mapping.heap_base
              ~bytes:pm.Mapping.heap_stack_bytes
              ~main_stack_bytes:config.Mapping.main_stack_bytes
          in
          let p =
            {
              pid;
              map = pm;
              static_tlb = static_tlbs.(i);
              tracker;
              cores;
              handlers = Hashtbl.create 4;
              threads = [];
              exited = false;
              exit_code = 0;
              job;
            }
          in
          Hashtbl.replace t.procs pid p;
          (* Install the static TLB entries on every core of the process;
             CNK asserts the budget holds (no evictions, ever). *)
          List.iter
            (fun core_id ->
              let tlb = (Chip.core t.chip core_id).Chip.tlb in
              (match Tlb.load tlb p.static_tlb with
              | Ok () -> ()
              | Error msg -> failwith ("CNK static map install failed: " ^ msg));
              assert (Tlb.evictions tlb = 0);
              let now = Sim.now (sim t) in
              Obs.span_record (obs t) ~cat:"tlb" ~name:"static_install" ~rank:t.rank
                ~core:core_id ~start:now ~finish:now;
              t.cores.(core_id).mapped_pid <- Some pid)
            cores;
          (* Load the image text so scans and persist tests see real data. *)
          let text = image_pattern job.Job.image (min job.Job.image.Image.text_bytes 4096) in
          write_virtual t ~pid ~addr:Mapping.text_va text;
          (* Main thread on the first core of the set. *)
          let tid = t.next_tid in
          t.next_tid <- tid + 1;
          let main =
            {
              tid;
              proc = p;
              core_id = List.hd cores;
              is_main = true;
              state = Ready;
              resume = None;
              clear_child_tid = None;
              pending_sigs = [];
              guard = None;
              guard_slot = None;
              futex_eintr = false;
            }
          in
          Hashtbl.add t.threads tid main;
          p.threads <- [ main ];
          let lo, hi = main_guard_range p in
          program_guard t main lo hi;
          let entry = job.Job.image.Image.entry in
          main.resume <- Some (fun () -> step_thread t main (Coro.start entry));
          (* Image load over the collective network gates thread start. *)
          let load_cycles =
            Bg_hw.Collective_net.estimate_cycles t.machine.Machine.collective
              ~bytes:job.Job.image.Image.file_bytes
          in
          ignore (Sim.schedule_in (sim t) load_cycles (fun () -> make_ready t main)))
        sets;
      emit t "cnk.launch" nprocs;
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
    emit t "cnk.l1_parity" core;
    ras t Machine.Ras_warn (Printf.sprintf "L1 parity error on core %d" core);
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
      if List.mem core p.cores then Error "core already belongs to that process"
      else begin
        let capacity = (Chip.params t.chip).Params.tlb_entries in
        let needed = List.length p.map.Mapping.regions in
        if needed > capacity then Error "remote process map exceeds the TLB"
        else begin
          t.cores.(core).remote_pid <- Some pid;
          emit t "cnk.remote_affinity" ((core * 100) + pid);
          Ok ()
        end
      end

let remote_designation t ~core =
  if core < 0 || core >= Array.length t.cores then None else t.cores.(core).remote_pid

(* Forcible job termination from the control system (walltime exceeded,
   operator action). Every live thread dies with code 137 (as a SIGKILL
   would report); completion fires normally so schedulers can proceed. *)
let kill_job t =
  if t.job_active then begin
    let victims = Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [] in
    let victims = List.sort (fun a b -> compare a.tid b.tid) victims in
    List.iter (fun th -> thread_exit t th 137) victims;
    ras t Machine.Ras_warn "job killed by the control system";
    emit t "cnk.job_killed" 0
  end

(* strace-style tracing: capture every syscall with cycle and tid. *)
let set_strace t enabled =
  t.strace <- (if enabled then Some (Buffer.create 256) else None)

let strace_output t =
  match t.strace with Some b -> Buffer.contents b | None -> ""

let add_core_penalty t ~core ~cycles =
  if core < 0 || core >= Array.length t.cores then invalid_arg "Node.add_core_penalty";
  t.cores.(core).pending_penalty <- t.cores.(core).pending_penalty + cycles

let scan_state t =
  let h = Chip.scan_state t.chip in
  let h = Fnv.add_int h t.syscalls in
  let h = Fnv.add_int h t.ipis in
  let h = Fnv.add_int h (live_threads t) in
  Fnv.add_int h (Sim.now (sim t))

(* Snapshot capture. Thread resume closures and in-flight I/O
   continuations cannot be serialized; their *shapes* (which tids hold
   one, pending timers, sequence numbers) are captured so a replayed run
   can be byte-verified against this state. *)
let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_b v = Buffer.add_uint8 b (if v then 1 else 0) in
  let w_opt = function
    | None -> Buffer.add_uint8 b 0
    | Some v ->
      Buffer.add_uint8 b 1;
      w_i v
  in
  let w_s s =
    w_i (String.length s);
    Buffer.add_string b s
  in
  w_i t.rank;
  w_b t.booted;
  w_b t.job_active;
  w_b t.io_enabled;
  w_i t.next_pid;
  w_i t.next_tid;
  w_i t.syscalls;
  w_i t.ipis;
  let faults = List.rev t.faults in
  w_i (List.length faults);
  List.iter
    (fun (code, msg) ->
      w_i code;
      w_s msg)
    faults;
  let codes = List.rev t.exit_codes in
  w_i (List.length codes);
  List.iter
    (fun (pid, code) ->
      w_i pid;
      w_i code)
    codes;
  let procs =
    Hashtbl.fold (fun pid p acc -> (pid, p) :: acc) t.procs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  w_i (List.length procs);
  List.iter
    (fun (pid, p) ->
      w_i pid;
      w_b p.exited;
      w_i p.exit_code;
      w_i (List.length p.threads);
      w_i (List.length p.cores);
      List.iter w_i p.cores;
      Mmap_tracker.capture p.tracker b)
    procs;
  let threads =
    Hashtbl.fold (fun tid th acc -> (tid, th) :: acc) t.threads []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  w_i (List.length threads);
  List.iter
    (fun (tid, th) ->
      w_i tid;
      w_i th.proc.pid;
      w_i th.core_id;
      w_b th.is_main;
      w_i
        (match th.state with Running -> 0 | Ready -> 1 | Blocked -> 2 | Zombie -> 3);
      w_b (th.resume <> None);
      w_opt th.clear_child_tid;
      w_i (List.length th.pending_sigs);
      List.iter w_i th.pending_sigs;
      (match th.guard with
      | None -> Buffer.add_uint8 b 0
      | Some (lo, hi) ->
        Buffer.add_uint8 b 1;
        w_i lo;
        w_i hi);
      w_opt th.guard_slot;
      w_b th.futex_eintr)
    threads;
  Array.iter
    (fun c ->
      w_opt (Option.map (fun th -> th.tid) c.current);
      w_i (Queue.length c.ready);
      Queue.iter (fun th -> w_i th.tid) c.ready;
      w_i c.pending_penalty;
      w_i c.pending_ipi;
      w_i c.next_dac_slot;
      w_opt c.remote_pid;
      w_opt c.mapped_pid)
    t.cores;
  let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
  let pending = sorted_keys t.io_pending in
  w_i (List.length pending);
  List.iter w_i pending;
  let inflight =
    Hashtbl.fold (fun tid inf acc -> (tid, inf) :: acc) t.io_inflight []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  w_i (List.length inflight);
  List.iter
    (fun (tid, (inf : io_inflight)) ->
      w_i tid;
      w_i inf.io_seq;
      w_i inf.io_pid;
      w_i inf.io_core;
      w_i inf.io_attempts;
      w_b (inf.io_timer <> None);
      Buffer.add_int64_le b (Fnv.add_bytes Fnv.empty inf.io_frame))
    inflight;
  let seqs =
    Hashtbl.fold (fun tid s acc -> (tid, s) :: acc) t.io_seq [] |> List.sort compare
  in
  w_i (List.length seqs);
  List.iter
    (fun (tid, s) ->
      w_i tid;
      w_i s)
    seqs;
  Futex.capture t.futex b;
  let regions = Persist.regions t.persist in
  w_i (List.length regions);
  List.iter
    (fun (r : Persist.region) ->
      w_s r.Persist.name;
      w_i r.Persist.va;
      w_i r.Persist.pa;
      w_i r.Persist.bytes;
      w_s r.Persist.owner)
    regions;
  Chip.capture t.chip b
