open Bg_engine
open Bg_hw
module Obs = Bg_obs.Obs
module Accounting = Bg_obs.Accounting
module Causal = Bg_obs.Causal

let boot_cycles_full = 18_000_000
let boot_cycles_stripped = 2_600_000
let syscall_overhead = 700
let io_extra_cost = 2_700

(* Kernel-mediated DMA access (paper Table I): every injection must
   translate the descriptor's user addresses and pin the payload pages
   before the engine may see it; every counter read or FIFO drain is
   another trap. These run on the core through the noise model, so the
   tick scheduler and daemons can preempt an injection midway. *)
let dma_pin_base_cycles = 1_800
let dma_pin_page_cycles = 350
let dma_poll_cycles = 200
let ctx_switch_cycles = 2_000
let timeslice = 8_500_000 (* 10 ms *)
let minor_fault_cycles = 2_500
let major_fault_cycles = 14_000 (* file-backed fault: VFS read at fault time *)
let tlb_refill_cycles = 60
let page = 4096
let user_va_limit = 0xC000_0000 (* the 3 GB 32-bit split, paper §VII.A *)
let sigsegv = 11

type thread_state = Running | Ready | Blocked | Zombie

type thread = {
  tid : int;
  proc : proc;
  core_id : int;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;
  mutable slice_left : int;
  mutable clear_child_tid : int option;
  mutable pending_sigs : int list;
  mutable futex_eintr : bool;
}

and proc = {
  pid : int;
  io : Bg_cio.Ioproxy.t;  (* local VFS state: fd table, cwd *)
  tracker : Cnk.Mmap_tracker.t;
  page_table : (int, int) Hashtbl.t;  (* vpage -> pframe *)
  (* file-backed vmas: contents are fetched page-by-page at fault time
     (demand paging), unlike CNK's whole-file copy at map time *)
  mutable file_vmas : (int * int * bytes) list;  (* (base, len, contents) *)
  write_protected : (int, unit) Hashtbl.t;  (* vpage set *)
  handlers : (int, int -> unit) Hashtbl.t;
  text_end : int;
  mutable threads : thread list;
  mutable exited : bool;
}

type core_state = {
  id : int;
  mutable current : thread option;
  ready : thread Queue.t;
  noise : Noise_model.t;
  mutable penalty : int;
}

type t = {
  machine : Machine.t;
  rank : int;
  chip : Chip.t;
  fs : Bg_cio.Fs.t;
  cores : core_state array;
  buddy : Buddy.t;
  futex : Cnk.Futex.t;
  procs : (int, proc) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  stripped : bool;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable booted : bool;
  mutable job_active : bool;
  mutable on_complete : (unit -> unit) option;
  mutable faults : (int * string) list;
  mutable minor_faults : int;
  mutable major_faults : int;
  mutable reclaims : int;
}

let sim t = t.machine.Machine.sim
let memory t = Chip.memory t.chip
let machine t = t.machine
let rank t = t.rank
let fs t = t.fs
let booted t = t.booted
let job_active t = t.job_active
let on_job_complete t f = t.on_complete <- Some f
let faults t = List.rev t.faults
let minor_faults t = t.minor_faults
let major_faults t = t.major_faults
let reclaims t = t.reclaims

let live_threads t =
  Hashtbl.fold (fun _ th acc -> if th.state <> Zombie then acc + 1 else acc) t.threads 0

let tlb_refills t =
  Array.fold_left
    (fun acc (c : Chip.core) -> acc + Tlb.evictions c.Chip.tlb)
    0 (Chip.cores t.chip)

let stolen_cycles t =
  Array.fold_left (fun acc c -> acc + Noise_model.stolen_cycles c.noise) 0 t.cores

let create ?noise_seed ?(daemons = Noise_model.suse_daemon_set) ?tick_interval
    ?(stripped = false) machine ~rank () =
  let chip = Machine.chip machine rank in
  let seed =
    match noise_seed with
    | Some s -> s
    | None ->
      (* Uncontrolled environment variability: every machine instance gets
         different daemon phases, so Linux runs are not reproducible. *)
      Int64.of_int ((machine.Machine.instance * 7919) + rank + 1)
  in
  let root_rng = Rng.create seed in
  {
    machine;
    rank;
    chip;
    fs = Bg_cio.Fs.create ();
    cores =
      Array.init (Chip.params chip).Params.cores_per_node (fun id ->
          {
            id;
            current = None;
            ready = Queue.create ();
            noise =
              Noise_model.create ?tick_interval ~daemons:(daemons ~core:id)
                ~rng:(Rng.split root_rng (Printf.sprintf "core%d" id))
                ();
            penalty = 0;
          });
    buddy = Buddy.create ~bytes:(Chip.params chip).Params.dram_bytes;
    futex = Cnk.Futex.create ();
    procs = Hashtbl.create 4;
    threads = Hashtbl.create 16;
    stripped;
    next_pid = 1;
    next_tid = 1;
    booted = false;
    job_active = false;
    on_complete = None;
    faults = [];
    minor_faults = 0;
    major_faults = 0;
    reclaims = 0;
  }

let emit t label value =
  Sim.emit (sim t) ~label ~value:(Int64.of_int ((t.rank * 1_000_000) + value))

let obs t = t.machine.Machine.obs

(* FWK's RAS reporting mirrors CNK's wording so the service node's
   database reads uniformly across kernels; the counter gives the
   health service a per-kernel emission series. *)
let ras t severity message =
  Obs.incr (obs t) ~rank:t.rank ~subsystem:"kernel" ~name:"ras_emitted" ();
  Machine.ras_emit t.machine ~rank:t.rank ~severity ~message
let acct t = t.machine.Machine.acct
let causal t = t.machine.Machine.causal

let causal_mint ?chain t ~cat ~name ~core =
  let c = causal t in
  if Causal.enabled c then
    Causal.mint c ?chain ~cat ~name ~rank:t.rank ~core ~now:(Sim.now (sim t)) ()
  else Causal.none

let acct_switch t ~core state =
  Accounting.switch (acct t) ~rank:t.rank ~core ~now:(Sim.now t.machine.Machine.sim) state

(* --- demand paging ----------------------------------------------------- *)

exception Fault of string

let legal_va (p : proc) va =
  va >= 0 && va < user_va_limit
  && (va < Cnk.Mmap_tracker.heap_end p.tracker
     || Cnk.Mmap_tracker.is_mapped p.tracker ~addr:va ~length:1
     || va >= Cnk.Mmap_tracker.main_stack_lo p.tracker
        && va < Cnk.Mmap_tracker.main_stack_hi p.tracker)

(* Resolve one page, faulting it in if needed; charges costs onto the
   core's pending-penalty accumulator (paid at the next consume). *)
let rec resolve_page t (th : thread) access va =
  let p = th.proc in
  let vpage = va / page * page in
  if access = Tlb.Store && Hashtbl.mem p.write_protected vpage then
    raise (Fault (Printf.sprintf "write to protected page 0x%x" vpage));
  let core_hw = Chip.core t.chip th.core_id in
  let core = t.cores.(th.core_id) in
  match Tlb.translate core_hw.Chip.tlb access va with
  | Tlb.Hit pa -> pa
  | Tlb.Fault reason -> raise (Fault reason)
  | Tlb.Miss ->
    let pframe =
      match Hashtbl.find_opt p.page_table vpage with
      | Some f ->
        core.penalty <- core.penalty + tlb_refill_cycles;
        Obs.incr (obs t) ~rank:t.rank ~core:th.core_id ~subsystem:"tlb" ~name:"refill" ();
        f
      | None ->
        if not (legal_va p va) then
          raise (Fault (Printf.sprintf "segfault at 0x%x" va));
        (* fault: allocate a frame; file-backed pages also read their
           contents from the VFS now (major fault) *)
        let f =
          match Buddy.alloc t.buddy ~order:12 with
          | Ok f -> f
          | Error _ -> (
            (* memory pressure: the page cache can discard a clean
               file-backed page and re-read it later (Table II: a unified
               page cache is a Linux advantage CNK gave up) *)
            match reclaim_file_page t p with
            | Some f -> f
            | None -> raise (Fault "out of physical memory"))
        in
        Hashtbl.replace p.page_table vpage f;
        (match
           List.find_opt
             (fun (base, len, _) -> vpage >= base && vpage < base + len)
             p.file_vmas
         with
        | Some (base, _, contents) ->
          let off = vpage - base in
          let n = min page (max 0 (Bytes.length contents - off)) in
          if n > 0 then Memory.write (memory t) ~addr:f (Bytes.sub contents off n);
          t.major_faults <- t.major_faults + 1;
          core.penalty <- core.penalty + major_fault_cycles;
          Obs.incr (obs t) ~rank:t.rank ~core:th.core_id ~subsystem:"vm" ~name:"major_fault" ()
        | None ->
          t.minor_faults <- t.minor_faults + 1;
          core.penalty <- core.penalty + minor_fault_cycles;
          Obs.incr (obs t) ~rank:t.rank ~core:th.core_id ~subsystem:"vm" ~name:"minor_fault" ());
        f
    in
    (* install a 4K entry; FIFO eviction is free to happen *)
    let entry =
      { Tlb.vaddr = vpage; paddr = pframe; size = Page_size.P4k; perm = Tlb.perm_rwx }
    in
    (match Tlb.install core_hw.Chip.tlb entry with Ok () | Error _ -> ());
    pframe + (va - vpage)

(* Drop one resident file-backed page (clean by construction: the vma
   snapshot is the backing store) and hand its frame to the caller. *)
and reclaim_file_page t (p : proc) =
  (* victim = lowest file-backed vpage: hash iteration order would make
     the evicted page (and so every downstream fault) run-dependent *)
  let victim =
    Hashtbl.fold
      (fun vpage frame acc ->
        if
          List.exists
            (fun (base, len, _) -> vpage >= base && vpage < base + len)
            p.file_vmas
        then
          match acc with
          | Some (v, _) when v <= vpage -> acc
          | _ -> Some (vpage, frame)
        else acc)
      p.page_table None
  in
  match victim with
  | Some (vpage, frame) ->
    Hashtbl.remove p.page_table vpage;
    t.reclaims <- t.reclaims + 1;
    Some frame
  | None -> None

(* Page-wise memory access: pages are not physically contiguous here. *)
let access_bytes t th access va len (f : pa:int -> off:int -> span:int -> unit) =
  let off = ref 0 in
  while !off < len do
    let cur = va + !off in
    let span = min (len - !off) (page - (cur mod page)) in
    let pa = resolve_page t th access cur in
    f ~pa ~off:!off ~span;
    off := !off + span
  done

let read_mem t th va len =
  let out = Bytes.create len in
  access_bytes t th Tlb.Load va len (fun ~pa ~off ~span ->
      Bytes.blit (Memory.read (memory t) ~addr:pa ~len:span) 0 out off span);
  out

let write_mem t th va data =
  access_bytes t th Tlb.Store va (Bytes.length data) (fun ~pa ~off ~span ->
      Memory.write (memory t) ~addr:pa (Bytes.sub data off span))

let read_word t th va = Int64.to_int (Bytes.get_int64_le (read_mem t th va 8) 0)

let write_word t th va v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write_mem t th va b

(* --- scheduler ---------------------------------------------------------- *)

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
        th.slice_left <- timeslice;
        acct_switch t ~core:core.id Accounting.Kernel;
        let resume = th.resume in
        th.resume <- None;
        ignore
          (Sim.schedule_in (sim t) ctx_switch_cycles (fun () ->
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

let make_ready t (th : thread) =
  let core = t.cores.(th.core_id) in
  th.state <- Ready;
  Queue.push th core.ready;
  dispatch t core

let check_job_done t =
  if t.job_active then begin
    let all = Hashtbl.fold (fun _ p acc -> acc && p.exited) t.procs true in
    if all && Hashtbl.length t.procs > 0 then begin
      t.job_active <- false;
      Machine.publish_net_gauges t.machine ~rank:t.rank;
      emit t "fwk.job_done" 0;
      match t.on_complete with
      | Some f ->
        t.on_complete <- None;
        f ()
      | None -> ()
    end
  end

let rec thread_exit t (th : thread) _code =
  if th.state <> Zombie then begin
    th.state <- Zombie;
    th.resume <- None;
    ignore (Cnk.Futex.remove t.futex ~tid:th.tid);
    (match th.clear_child_tid with
    | Some addr ->
      (try
         write_word t th addr 0;
         ignore (wake_futex t th.proc addr 1)
       with Fault _ -> ())
    | None -> ());
    th.proc.threads <- List.filter (fun x -> x.tid <> th.tid) th.proc.threads;
    release_core t th;
    if th.proc.threads = [] && not th.proc.exited then begin
      th.proc.exited <- true;
      check_job_done t
    end
  end

and wake_futex t (p : proc) addr count =
  let tids = Cnk.Futex.wake t.futex ~pid:p.pid ~addr ~count in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.threads tid with
      | Some th when th.state = Blocked -> make_ready t th
      | _ -> ())
    tids;
  List.length tids

let deliver_signals t (th : thread) =
  let pending = List.rev th.pending_sigs in
  th.pending_sigs <- [];
  List.for_all
    (fun signo ->
      match Hashtbl.find_opt th.proc.handlers signo with
      | Some h ->
        h signo;
        true
      | None ->
        t.faults <- (th.tid, Printf.sprintf "unhandled signal %d" signo) :: t.faults;
        ras t Machine.Ras_error
          (Printf.sprintf "tid %d killed by unhandled signal %d" th.tid signo);
        thread_exit t th signo;
        false)
    pending

(* --- the step driver ----------------------------------------------------- *)

let refresh_stretch t start n =
  let p = Chip.params t.chip in
  let interval = p.Params.dram_refresh_interval_cycles in
  if interval <= 0 then n
  else n + ((((start + n) / interval) - (start / interval)) * p.Params.dram_refresh_stall_cycles)

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
      requeue t th
    | Coro.Consume (n, k) -> do_consume t th n k
    | Coro.Load (addr, len, k) -> (
      try step_thread t th (k (read_mem t th addr len))
      with Fault reason ->
        (* with a SIGSEGV handler the access is dropped and reads as zero *)
        on_fault t th reason (fun () -> step_thread t th (k (Bytes.make len '\000'))))
    | Coro.Store (addr, data, k) -> (
      try
        write_mem t th addr data;
        step_thread t th (k ())
      with Fault reason -> on_fault t th reason (fun () -> step_thread t th (k ())))
    | Coro.Cas (addr, expected, desired, k) -> (
      try
        let v = read_word t th addr in
        if v = expected then write_word t th addr desired;
        step_thread t th (k (v = expected))
      with Fault reason -> on_fault t th reason (fun () -> step_thread t th (k false)))
    | Coro.Fetch_add (addr, delta, k) -> (
      try
        let v = read_word t th addr in
        write_word t th addr (v + delta);
        step_thread t th (k v)
      with Fault reason -> on_fault t th reason (fun () -> step_thread t th (k 0)))
    | Coro.Syscall (req, k) ->
      let k = instrument_syscall t th req k in
      let k = account_syscall t th req k in
      ignore
        (Sim.schedule_in (sim t) syscall_overhead (fun () ->
             if th.state <> Zombie then handle_syscall t th req k))

(* Same passive wrapper as the CNK kernel: record the dispatch-to-reply
   interval per Sysreq kind. Comparing the two kernels' "syscall" timers
   side by side is the paper's Table II in live form. *)
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

(* Charge trap-to-reply to [Syscall] in the cycle ledger; same contract
   as the CNK kernel. *)
and account_syscall t (th : thread) req k =
  match req with
  | Sysreq.Exit_thread _ | Sysreq.Exit_group _ -> k
  | _ ->
    acct_switch t ~core:th.core_id Accounting.Syscall;
    fun reply ->
      acct_switch t ~core:th.core_id Accounting.App;
      k reply

and requeue t (th : thread) =
  let core = t.cores.(th.core_id) in
  (match core.current with
  | Some cur when cur.tid = th.tid -> core.current <- None
  | _ -> ());
  th.state <- Ready;
  Queue.push th core.ready;
  dispatch t core

(* SIGSEGV semantics: a registered handler runs and the faulting access is
   skipped; otherwise the thread dies and the fault is recorded once. *)
and on_fault t (th : thread) reason continue =
  match Hashtbl.find_opt th.proc.handlers sigsegv with
  | Some h ->
    h sigsegv;
    continue ()
  | None ->
    t.faults <- (th.tid, reason) :: t.faults;
    ras t Machine.Ras_error (Printf.sprintf "tid %d segv: %s" th.tid reason);
    thread_exit t th sigsegv

(* Preemptive, noisy consume: split at time-slice boundaries when other
   threads wait on the core; every quantum is stretched by ticks and
   daemon activations. *)
and do_consume t (th : thread) work k =
  let core = t.cores.(th.core_id) in
  let now = Sim.now (sim t) in
  let pen = core.penalty in
  let work = work + pen in
  core.penalty <- 0;
  (* Close the window in the cycle ledger: steals to Interrupt/Daemon,
     kernel service folded into the window (TLB refills, fault handling)
     to Kernel, the rest to the app. The [min] keeps attribution inside
     the window when a large penalty spills across a slice split. *)
  let account ~window (steal : Noise_model.steal) =
    let kernel_part = min pen window in
    if steal.Noise_model.tick > 0 || steal.Noise_model.daemon > 0 || kernel_part > 0 then
      Accounting.attribute (acct t) ~rank:t.rank ~core:th.core_id
        ~now:(Sim.now (sim t))
        [
          (Accounting.Interrupt, steal.Noise_model.tick);
          (Accounting.Daemon, steal.Noise_model.daemon);
          (Accounting.Kernel, kernel_part);
        ]
  in
  let has_waiters = not (Queue.is_empty core.ready) in
  if has_waiters && work > th.slice_left then begin
    let part = th.slice_left in
    let window = refresh_stretch t now part in
    let finish, steal = Noise_model.advance2 core.noise ~start:now ~work:window in
    ignore
      (Sim.schedule_at (sim t) finish (fun () ->
           if th.state <> Zombie then begin
             account ~window steal;
             th.resume <- Some (fun () -> do_consume t th (work - part) k);
             requeue t th
           end))
  end
  else begin
    let window = refresh_stretch t now work in
    let finish, steal = Noise_model.advance2 core.noise ~start:now ~work:window in
    th.slice_left <- max 1 (th.slice_left - work);
    ignore
      (Sim.schedule_at (sim t) finish (fun () ->
           if th.state <> Zombie then begin
             account ~window steal;
             if deliver_signals t th then step_thread t th (k ())
           end))
  end

(* --- syscalls ------------------------------------------------------------- *)

and handle_syscall t (th : thread) req k =
  let p = th.proc in
  let ret reply = step_thread t th (k reply) in
  match req with
  | Sysreq.Getpid -> ret (Sysreq.R_int p.pid)
  | Sysreq.Gettid -> ret (Sysreq.R_int th.tid)
  | Sysreq.Get_rank -> ret (Sysreq.R_int t.rank)
  | Sysreq.Uname ->
    ret
      (Sysreq.R_uname
         {
           Sysreq.sysname = "Linux";
           nodename = Printf.sprintf "fwk%d-cn%d" t.machine.Machine.instance t.rank;
           release = "2.6.30";
           machine = "ppc450d";
         })
  | Sysreq.Gettimeofday -> ret (Sysreq.R_int (int_of_float (Cycles.to_us (Sim.now (sim t)))))
  | Sysreq.Brk target -> (
    match Cnk.Mmap_tracker.brk p.tracker target with
    | Ok b -> ret (Sysreq.R_int b)
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Mmap { length; fd = None; _ } -> (
    match Cnk.Mmap_tracker.mmap p.tracker ~length with
    | Ok addr -> ret (Sysreq.R_int addr)
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Mmap { length; fd = Some fd; offset; _ } -> (
    match Cnk.Mmap_tracker.mmap p.tracker ~length with
    | Error e -> ret (Sysreq.R_err e)
    | Ok addr -> (
      (* Linux maps the file lazily: contents are snapshot here (MAP_COPY
         semantics for the model) but each page is charged at fault time,
         when it is first touched — runtime noise, where CNK pays at load *)
      match Bg_cio.Ioproxy.handle p.io (Sysreq.Pread { fd; len = length; offset }) with
      | Sysreq.R_bytes data ->
        let base = addr / page * page in
        let len = (length + page - 1) / page * page in
        p.file_vmas <- (base, len, data) :: p.file_vmas;
        ret (Sysreq.R_int addr)
      | other -> ret other))
  | Sysreq.Munmap { addr; length } -> (
    match Cnk.Mmap_tracker.munmap p.tracker ~addr ~length with
    | Ok () -> ret Sysreq.R_unit
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Mprotect { addr; length; prot } ->
    (* Linux enforces page protection for real (Table II). *)
    let first = addr / page and last = (addr + length - 1) / page in
    for vp = first to last do
      if prot.Tlb.write then Hashtbl.remove p.write_protected (vp * page)
      else Hashtbl.replace p.write_protected (vp * page) ()
    done;
    ret Sysreq.R_unit
  | Sysreq.Shm_open _ | Sysreq.Query_map | Sysreq.Query_vtop _ ->
    (* No persistent named memory; no static map to query; user space
       cannot learn v->p on Linux (paper Table II "not avail"). *)
    ret (Sysreq.R_err Errno.ENOSYS)
  | Sysreq.Set_tid_address addr ->
    th.clear_child_tid <- Some addr;
    ret (Sysreq.R_int th.tid)
  | Sysreq.Clone { flags; stack_hint = _; tls = _; parent_tid_addr; child_tid_addr; entry } ->
    if not flags.Sysreq.vm then ret (Sysreq.R_err Errno.EINVAL)
    else begin
      (* least-loaded core, no per-core limit: overcommit is fine here *)
      let load c =
        List.length (List.filter (fun x -> x.core_id = c.id && x.state <> Zombie) p.threads)
      in
      let core =
        Array.fold_left
          (fun best c -> if load c < load best then c else best)
          t.cores.(0) t.cores
      in
      let tid = t.next_tid in
      t.next_tid <- tid + 1;
      let child =
        {
          tid;
          proc = p;
          core_id = core.id;
          state = Ready;
          resume = None;
          slice_left = timeslice;
          clear_child_tid = (if child_tid_addr <> 0 then Some child_tid_addr else None);
          pending_sigs = [];
          futex_eintr = false;
        }
      in
      Hashtbl.add t.threads tid child;
      p.threads <- child :: p.threads;
      if parent_tid_addr <> 0 then (try write_word t th parent_tid_addr tid with Fault _ -> ());
      if child_tid_addr <> 0 then (try write_word t th child_tid_addr tid with Fault _ -> ());
      child.resume <- Some (fun () -> step_thread t child (Coro.start entry));
      make_ready t child;
      ret (Sysreq.R_int tid)
    end
  | Sysreq.Exit_thread code -> thread_exit t th code
  | Sysreq.Exit_group code ->
    List.iter (fun o -> thread_exit t o code) (List.filter (fun x -> x.tid <> th.tid) p.threads);
    thread_exit t th code
  | Sysreq.Sigaction { signo; handler } ->
    (match handler with
    | Some h -> Hashtbl.replace p.handlers signo h
    | None -> Hashtbl.remove p.handlers signo);
    ret Sysreq.R_unit
  | Sysreq.Tgkill { tid; signo } -> (
    match Hashtbl.find_opt t.threads tid with
    | None -> ret (Sysreq.R_err Errno.ESRCH)
    | Some target when target.state = Zombie -> ret (Sysreq.R_err Errno.ESRCH)
    | Some target ->
      target.pending_sigs <- target.pending_sigs @ [ signo ];
      if target.state = Blocked && Cnk.Futex.remove t.futex ~tid then begin
        target.futex_eintr <- true;
        make_ready t target
      end;
      ret Sysreq.R_unit)
  | Sysreq.Sched_yield ->
    th.resume <- Some (fun () -> ret (Sysreq.R_int 0));
    requeue t th
  | Sysreq.Futex_wait { addr; expected } -> (
    match read_word t th addr with
    | exception Fault _ -> ret (Sysreq.R_err Errno.EFAULT)
    | v ->
      if v <> expected then ret (Sysreq.R_err Errno.EAGAIN)
      else begin
        Cnk.Futex.enqueue t.futex ~pid:p.pid ~addr ~tid:th.tid;
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
    (* Linux exposes the same UPC silicon through its perf layer. *)
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
  | Sysreq.Dma_inject d ->
    let core = t.cores.(th.core_id) in
    (* pin every page the descriptor references — d.bytes, not just the
       carried payload, so bulk rDMA pays for its whole buffer *)
    let pages = 1 + ((d.Dma.bytes + page - 1) / page) in
    let work = dma_pin_base_cycles + (pages * dma_pin_page_cycles) in
    let finish, _steal =
      Noise_model.advance2 core.noise ~start:(Sim.now (sim t)) ~work
    in
    ignore
      (Sim.schedule_at (sim t) finish (fun () ->
           if th.state <> Zombie then
             match Dma.inject (Machine.dma t.machine t.rank) d with
             | Ok () -> ret Sysreq.R_unit
             | Error `Fifo_full -> ret (Sysreq.R_err Errno.EAGAIN)))
  | Sysreq.Dma_poll op ->
    let core = t.cores.(th.core_id) in
    let finish, _steal =
      Noise_model.advance2 core.noise ~start:(Sim.now (sim t)) ~work:dma_poll_cycles
    in
    ignore
      (Sim.schedule_at (sim t) finish (fun () ->
           if th.state <> Zombie then
             let engine = Machine.dma t.machine t.rank in
             match op with
             | Sysreq.Dma_counter id ->
               ret (Sysreq.R_int (Dma.counter_value engine ~id))
             | Sysreq.Dma_recv -> ret (Sysreq.R_dma_packets (Dma.drain_recv engine))))
  | _ when Sysreq.is_file_io req ->
    (* Local VFS: in-kernel service, Linux-scale cost, then reply. FWK
       never crosses the collective network, so file I/O cannot be lost;
       the counter lets chaos tooling confirm which path a run took. *)
    Obs.incr (obs t) ~rank:t.rank ~subsystem:"cio" ~name:"local_served" ();
    ignore
      (Sim.schedule_in (sim t) io_extra_cost (fun () ->
           if th.state <> Zombie then ret (Bg_cio.Ioproxy.handle p.io req)))
  | _ -> ret (Sysreq.R_err Errno.ENOSYS)

(* --- boot / launch ---------------------------------------------------------- *)

let boot t ~on_ready =
  let cycles = if t.stripped then boot_cycles_stripped else boot_cycles_full in
  ignore
    (Sim.schedule_in (sim t) cycles (fun () ->
         t.booted <- true;
         emit t "fwk.boot" 0;
         on_ready ()))

let launch t (job : Job.t) =
  if not t.booted then Error "node not booted"
  else if t.job_active then Error "a job is already active"
  else begin
    t.job_active <- true;
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    let image = job.Job.image in
    let text_end = image.Image.text_bytes + image.Image.data_bytes in
    let heap_base = (text_end + page - 1) / page * page in
    let p =
      {
        pid;
        io = Bg_cio.Ioproxy.create t.fs ~rank:t.rank ~pid;
        tracker =
          Cnk.Mmap_tracker.create ~base:heap_base ~bytes:(user_va_limit - heap_base)
            ~main_stack_bytes:(8 * 1024 * 1024);
        page_table = Hashtbl.create 1024;
        file_vmas = [];
        write_protected = Hashtbl.create 16;
        handlers = Hashtbl.create 4;
        text_end;
        threads = [];
        exited = false;
      }
    in
    Hashtbl.replace t.procs pid p;
    let tid = t.next_tid in
    t.next_tid <- tid + 1;
    let main =
      {
        tid;
        proc = p;
        core_id = 0;
        state = Ready;
        resume = None;
        slice_left = timeslice;
        clear_child_tid = None;
        pending_sigs = [];
        futex_eintr = false;
      }
    in
    Hashtbl.add t.threads tid main;
    p.threads <- [ main ];
    main.resume <- Some (fun () -> step_thread t main (Coro.start image.Image.entry));
    make_ready t main;
    emit t "fwk.launch" pid;
    Ok ()
  end

(* --- fragmentation probes ----------------------------------------------------- *)

let try_alloc_contiguous t ~bytes =
  match Buddy.alloc_bytes t.buddy bytes with
  | Ok addr ->
    let rec order_of n o = if 1 lsl o >= n then o else order_of n (o + 1) in
    Buddy.free t.buddy ~addr ~order:(order_of bytes Buddy.min_order);
    true
  | Error _ -> false

let churn t ~allocations ~seed =
  let rng = Rng.create seed in
  let live = ref [] in
  for _ = 1 to allocations do
    let order = Buddy.min_order + Rng.int rng 8 in
    (match Buddy.alloc t.buddy ~order with
    | Ok addr -> live := (addr, order) :: !live
    | Error _ -> ());
    (* free roughly half of what we hold, at random *)
    if Rng.bool rng then begin
      match !live with
      | (addr, order) :: rest when Rng.bool rng ->
        Buddy.free t.buddy ~addr ~order;
        live := rest
      | _ -> ()
    end
  done

(* Snapshot capture: closures (thread resume continuations) are captured
   by shape only; file contents and frame payloads by digest. *)
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
  w_b t.stripped;
  w_i t.next_pid;
  w_i t.next_tid;
  w_i t.minor_faults;
  w_i t.major_faults;
  w_i t.reclaims;
  let faults = List.rev t.faults in
  w_i (List.length faults);
  List.iter
    (fun (code, msg) ->
      w_i code;
      w_s msg)
    faults;
  let procs =
    Hashtbl.fold (fun pid p acc -> (pid, p) :: acc) t.procs []
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  w_i (List.length procs);
  List.iter
    (fun (pid, p) ->
      w_i pid;
      w_b p.exited;
      w_i p.text_end;
      w_i (List.length p.threads);
      let pages =
        Hashtbl.fold (fun vp f acc -> (vp, f) :: acc) p.page_table []
        |> List.sort compare
      in
      w_i (List.length pages);
      List.iter
        (fun (vp, f) ->
          w_i vp;
          w_i f)
        pages;
      w_i (List.length p.file_vmas);
      List.iter
        (fun (base, len, contents) ->
          w_i base;
          w_i len;
          Buffer.add_int64_le b (Fnv.add_bytes Fnv.empty contents))
        p.file_vmas;
      let wp = Hashtbl.fold (fun vp () acc -> vp :: acc) p.write_protected [] in
      let wp = List.sort compare wp in
      w_i (List.length wp);
      List.iter w_i wp;
      Bg_cio.Ioproxy.capture p.io b;
      Cnk.Mmap_tracker.capture p.tracker b)
    procs;
  let threads =
    Hashtbl.fold (fun tid th acc -> (tid, th) :: acc) t.threads []
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  w_i (List.length threads);
  List.iter
    (fun (tid, th) ->
      w_i tid;
      w_i th.proc.pid;
      w_i th.core_id;
      w_i
        (match th.state with Running -> 0 | Ready -> 1 | Blocked -> 2 | Zombie -> 3);
      w_b (th.resume <> None);
      w_i th.slice_left;
      w_opt th.clear_child_tid;
      w_i (List.length th.pending_sigs);
      List.iter w_i th.pending_sigs;
      w_b th.futex_eintr)
    threads;
  Array.iter
    (fun c ->
      w_opt (Option.map (fun th -> th.tid) c.current);
      w_i (Queue.length c.ready);
      Queue.iter (fun th -> w_i th.tid) c.ready;
      w_i c.penalty;
      Noise_model.capture c.noise b)
    t.cores;
  Buddy.capture t.buddy b;
  Cnk.Futex.capture t.futex b;
  Bg_cio.Fs.capture t.fs b;
  Chip.capture t.chip b
