open Bg_engine
open Bg_hw
open Cnk.Kernel
module Obs = Bg_obs.Obs
module Accounting = Bg_obs.Accounting

(* Trace labels, declared once (see [Fnv.Label]). *)
module L = struct
  let boot = Trace.label "fwk.boot"
  let job_done = Trace.label "fwk.job_done"
  let launch = Trace.label "fwk.launch"
end


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

(* The FWK's share of each scaffold record (see [Cnk.Kernel]); its cores
   carry their noise model. *)
type tx = { mutable slice_left : int }

type px = {
  io : Bg_cio.Ioproxy.t;  (* local VFS state: fd table, cwd *)
  page_table : (int, int) Hashtbl.t;  (* vpage -> pframe *)
  (* file-backed vmas: contents are fetched page-by-page at fault time
     (demand paging), unlike CNK's whole-file copy at map time *)
  mutable file_vmas : (int * int * bytes) list;  (* (base, len, contents) *)
  write_protected : (int, unit) Hashtbl.t;  (* vpage set *)
  text_end : int;
}

type nx = {
  fs : Bg_cio.Fs.t;
  buddy : Buddy.t;
  stripped : bool;
  mutable minor_faults : int;
  mutable major_faults : int;
  mutable reclaims : int;
}

type thread = (tx, px) Cnk.Kernel.thread
type proc = (tx, px) Cnk.Kernel.proc
type core = (tx, px, Noise_model.t) Cnk.Kernel.core
type t = (tx, px, Noise_model.t, nx) Cnk.Kernel.t

include Api

let fs t = t.nx.fs
let minor_faults t = t.nx.minor_faults
let major_faults t = t.nx.major_faults
let reclaims t = t.nx.reclaims

let tlb_refills t =
  Array.fold_left
    (fun acc (c : Chip.core) -> acc + Tlb.evictions c.Chip.tlb)
    0 (Chip.cores t.chip)

let stolen_cycles t =
  Array.fold_left (fun acc (c : core) -> acc + Noise_model.stolen_cycles c.cx) 0 t.cores

(* --- demand paging ----------------------------------------------------- *)

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
  if access = Tlb.Store && Hashtbl.mem p.px.write_protected vpage then
    raise (Fault (Printf.sprintf "write to protected page 0x%x" vpage));
  let core_hw = Chip.core t.chip th.core_id in
  let core = t.cores.(th.core_id) in
  match Tlb.translate core_hw.Chip.tlb access va with
  | Tlb.Hit pa -> pa
  | Tlb.Fault reason -> raise (Fault reason)
  | Tlb.Miss ->
    let pframe =
      match Hashtbl.find_opt p.px.page_table vpage with
      | Some f ->
        core.penalty <- core.penalty + tlb_refill_cycles;
        Obs.add (obs t) ~rank:t.rank ~core:th.core_id Metrics.Kernel.tlb_refill 1;
        f
      | None ->
        if not (legal_va p va) then
          raise (Fault (Printf.sprintf "segfault at 0x%x" va));
        (* fault: allocate a frame; file-backed pages also read their
           contents from the VFS now (major fault) *)
        let f =
          match Buddy.alloc t.nx.buddy ~order:12 with
          | Ok f -> f
          | Error _ -> (
            (* memory pressure: the page cache can discard a clean
               file-backed page and re-read it later (Table II: a unified
               page cache is a Linux advantage CNK gave up) *)
            match reclaim_file_page t p with
            | Some f -> f
            | None -> raise (Fault "out of physical memory"))
        in
        Hashtbl.replace p.px.page_table vpage f;
        (match
           List.find_opt
             (fun (base, len, _) -> vpage >= base && vpage < base + len)
             p.px.file_vmas
         with
        | Some (base, _, contents) ->
          let off = vpage - base in
          let n = min page (max 0 (Bytes.length contents - off)) in
          if n > 0 then Memory.write (memory t) ~addr:f (Bytes.sub contents off n);
          t.nx.major_faults <- t.nx.major_faults + 1;
          core.penalty <- core.penalty + major_fault_cycles;
          Obs.add (obs t) ~rank:t.rank ~core:th.core_id Metrics.Kernel.vm_major_fault 1
        | None ->
          t.nx.minor_faults <- t.nx.minor_faults + 1;
          core.penalty <- core.penalty + minor_fault_cycles;
          Obs.add (obs t) ~rank:t.rank ~core:th.core_id Metrics.Kernel.vm_minor_fault 1);
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
            p.px.file_vmas
        then
          match acc with
          | Some (v, _) when v <= vpage -> acc
          | _ -> Some (vpage, frame)
        else acc)
      p.px.page_table None
  in
  match victim with
  | Some (vpage, frame) ->
    Hashtbl.remove p.px.page_table vpage;
    t.nx.reclaims <- t.nx.reclaims + 1;
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

let read t th va len =
  let out = Bytes.create len in
  access_bytes t th Tlb.Load va len (fun ~pa ~off ~span ->
      Bytes.blit (Memory.read (memory t) ~addr:pa ~len:span) 0 out off span);
  out

let write t th va data =
  access_bytes t th Tlb.Store va (Bytes.length data) (fun ~pa ~off ~span ->
      Memory.write (memory t) ~addr:pa (Bytes.sub data off span));
  true

let read_word t th va = Int64.to_int (Bytes.get_int64_le (read t th va 8) 0)

let write_word t th va v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  ignore (write t th va b : bool)

(* SIGSEGV semantics: a registered handler runs and the faulting access is
   skipped; otherwise the thread dies and the fault is recorded once. *)
let fault t (th : thread) reason continue =
  match List.assoc_opt sigsegv th.proc.handlers with
  | Some h ->
    h sigsegv;
    continue ()
  | None ->
    t.faults <- (th.tid, reason) :: t.faults;
    ras t (Machine.Thread_death { tid = th.tid; cause = Segv reason });
    thread_exit t th sigsegv

(* --- time policy ---------------------------------------------------------- *)

(* Close a window in the cycle ledger: steals to Interrupt/Daemon, kernel
   service folded into the window (TLB refills, fault handling) to
   Kernel, the rest to the app. *)
let account t (th : thread) ~tick ~daemon ~kernel =
  if (tick > 0 || daemon > 0 || kernel > 0) && Accounting.enabled (acct t) then
    Accounting.attribute (acct t) ~rank:t.rank ~core:th.core_id
      ~now:(Sim.now (sim t))
      [ (Accounting.Interrupt, tick); (Accounting.Daemon, daemon); (Accounting.Kernel, kernel) ]

(* Preemptive, noisy consume: split at time-slice boundaries when other
   threads wait on the core; every quantum is stretched by ticks and
   daemon activations. The [min] keeps kernel attribution inside the
   window when a large penalty spills across a slice split. *)
let rec consume t (th : thread) work k =
  let core = t.cores.(th.core_id) in
  let now = Sim.now (sim t) in
  let pen = core.penalty in
  let work = work + pen in
  core.penalty <- 0;
  let has_waiters = not (Queue.is_empty core.ready) in
  if has_waiters && work > th.tx.slice_left then begin
    let part = th.tx.slice_left in
    let window = refresh_stretch t now part in
    let finish = Noise_model.advance core.cx ~start:now ~work:window in
    let tick = Noise_model.window_tick core.cx and daemon = Noise_model.window_daemon core.cx in
    let kernel = min pen window in
    ignore
      (Sim.schedule_at (sim t) finish (fun () ->
           if th.state <> Zombie then begin
             account t th ~tick ~daemon ~kernel;
             th.resume <- Some (fun () -> consume t th (work - part) k);
             requeue t th
           end))
  end
  else begin
    let window = refresh_stretch t now work in
    let finish = Noise_model.advance core.cx ~start:now ~work:window in
    let tick = Noise_model.window_tick core.cx and daemon = Noise_model.window_daemon core.cx in
    let kernel = min pen window in
    th.tx.slice_left <- max 1 (th.tx.slice_left - work);
    ignore
      (Sim.schedule_at (sim t) finish (fun () ->
           if th.state <> Zombie then begin
             account t th ~tick ~daemon ~kernel;
             if deliver_signals t th then step t th (Effect.Deep.continue k ())
           end))
  end

(* Run [work] kernel cycles on the thread's core through the noise model,
   then [f] unless the thread died meanwhile. *)
let in_kernel t (th : thread) work f =
  let finish = Noise_model.advance t.cores.(th.core_id).cx ~start:(Sim.now (sim t)) ~work in
  ignore (Sim.schedule_at (sim t) finish (fun () -> if th.state <> Zombie then f ()))

(* --- the FWK's own syscalls ------------------------------------------------ *)

(* Least-loaded core, no per-core limit: overcommit is fine here. *)
let clone t (th : thread) (flags : Sysreq.clone_flags) =
  if not flags.Sysreq.vm then Error Errno.EINVAL
  else begin
    let load (c : core) =
      List.length
        (List.filter (fun (x : thread) -> x.core_id = c.id && x.state <> Zombie) th.proc.threads)
    in
    let core =
      Array.fold_left (fun best c -> if load c < load best then c else best) t.cores.(0) t.cores
    in
    Ok (core.id, { slice_left = timeslice })
  end

let syscall t (th : thread) (req : Sysreq.request) ret =
  let p = th.proc in
  match req with
  | Sysreq.Uname ->
    ret
      (Sysreq.R_uname
         {
           Sysreq.sysname = "Linux";
           nodename = Printf.sprintf "fwk%d-cn%d" t.machine.Machine.instance t.rank;
           release = "2.6.30";
           machine = "ppc450d";
         })
  | Sysreq.Brk target -> (
    match Cnk.Mmap_tracker.brk p.tracker target with
    | Ok b -> ret (Sysreq.R_int b)
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Mmap { length; fd = Some fd; offset; _ } -> (
    match Cnk.Mmap_tracker.mmap p.tracker ~length with
    | Error e -> ret (Sysreq.R_err e)
    | Ok addr -> (
      (* Linux maps the file lazily: contents are snapshot here (MAP_COPY
         semantics for the model) but each page is charged at fault time,
         when it is first touched — runtime noise, where CNK pays at load *)
      match Bg_cio.Ioproxy.handle p.px.io (Sysreq.Pread { fd; len = length; offset }) with
      | Sysreq.R_bytes data ->
        let base = addr / page * page in
        let len = (length + page - 1) / page * page in
        p.px.file_vmas <- (base, len, data) :: p.px.file_vmas;
        ret (Sysreq.R_int addr)
      | other -> ret other))
  | Sysreq.Mprotect { addr; length; prot } ->
    (* Linux enforces page protection for real (Table II). A range that
       leaves the user address space maps nothing: ENOMEM, checked before
       the per-page loop (the bound cannot overflow). *)
    if length < 0 then ret (Sysreq.R_err Errno.EINVAL)
    else if addr < 0 || length > user_va_limit - addr then ret (Sysreq.R_err Errno.ENOMEM)
    else begin
      let first = addr / page and last = (addr + length - 1) / page in
      for vp = first to last do
        if prot.Tlb.write then Hashtbl.remove p.px.write_protected (vp * page)
        else Hashtbl.replace p.px.write_protected (vp * page) ()
      done;
      ret Sysreq.R_unit
    end
  | Sysreq.Shm_open _ | Sysreq.Query_map | Sysreq.Query_vtop _ ->
    (* No persistent named memory; no static map to query; user space
       cannot learn v->p on Linux (paper Table II "not avail"). *)
    ret (Sysreq.R_err Errno.ENOSYS)
  | Sysreq.Dma_inject d ->
    (* pin every page the descriptor references — d.bytes, not just the
       carried payload, so bulk rDMA pays for its whole buffer *)
    let pages = 1 + ((d.Dma.bytes + page - 1) / page) in
    in_kernel t th (dma_pin_base_cycles + (pages * dma_pin_page_cycles)) (fun () ->
        match Dma.inject (Machine.dma t.machine t.rank) d with
        | Ok () -> ret Sysreq.R_unit
        | Error `Fifo_full -> ret (Sysreq.R_err Errno.EAGAIN))
  | Sysreq.Dma_poll op ->
    in_kernel t th dma_poll_cycles (fun () ->
        let engine = Machine.dma t.machine t.rank in
        match op with
        | Sysreq.Dma_counter id -> ret (Sysreq.R_int (Dma.counter_value engine ~id))
        | Sysreq.Dma_recv -> ret (Sysreq.R_dma_packets (Dma.drain_recv engine)))
  | _ when Sysreq.is_file_io req ->
    (* Local VFS: in-kernel service, Linux-scale cost, then reply. FWK
       never crosses the collective network, so file I/O cannot be lost;
       the counter lets chaos tooling confirm which path a run took. *)
    Obs.add (obs t) ~rank:t.rank ~core:Obs.node_scope Metrics.Cio.local_served 1;
    ignore
      (Sim.schedule_in (sim t) io_extra_cost (fun () ->
           if th.state <> Zombie then ret (Bg_cio.Ioproxy.handle p.px.io req)))
  | _ -> ret (Sysreq.R_err Errno.ENOSYS)

let policy =
  {
    read;
    write;
    read_word;
    write_word;
    clear_tid = (fun t th addr -> write_word t th addr 0);
    fault;
    consume;
    switch_in =
      (fun _ _ th ->
        th.tx.slice_left <- timeslice;
        ctx_switch_cycles);
    syscall_cycles = syscall_overhead;
    syscall;
    clone;
    (* the FWK traces only job completion *)
    hook =
      (fun t -> function
        | Job_done ->
          Machine.publish_net_gauges t.machine ~rank:t.rank;
          emit t L.job_done 0
        | _ -> ());
  }

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
  Cnk.Kernel.create machine ~rank ~policy
    ~core:(fun id ->
      Noise_model.create ?tick_interval ~daemons:(daemons ~core:id)
        ~rng:(Rng.split root_rng (Printf.sprintf "core%d" id))
        ())
    {
      fs = Bg_cio.Fs.create ();
      buddy = Buddy.create ~bytes:(Chip.params chip).Params.dram_bytes;
      stripped;
      minor_faults = 0;
      major_faults = 0;
      reclaims = 0;
    }

(* --- boot / launch ---------------------------------------------------------- *)

let boot t ~on_ready =
  let cycles = if t.nx.stripped then boot_cycles_stripped else boot_cycles_full in
  ignore
    (Sim.schedule_in (sim t) cycles (fun () ->
         t.booted <- true;
         emit t L.boot 0;
         on_ready ()))

let launch t (job : Job.t) =
  if not t.booted then Error "node not booted"
  else if t.job_active then Error "a job is already active"
  else begin
    t.job_active <- true;
    let image = job.Job.image in
    let text_end = image.Image.text_bytes + image.Image.data_bytes in
    let heap_base = (text_end + page - 1) / page * page in
    let tracker =
      Cnk.Mmap_tracker.create ~base:heap_base ~bytes:(user_va_limit - heap_base)
        ~main_stack_bytes:(8 * 1024 * 1024)
    in
    let p =
      new_proc t ~tracker (fun pid ->
          {
            io = Bg_cio.Ioproxy.create t.nx.fs ~rank:t.rank ~pid;
            page_table = Hashtbl.create 1024;
            file_vmas = [];
            write_protected = Hashtbl.create 16;
            text_end;
          })
    in
    let main = spawn t p ~core_id:0 { slice_left = timeslice } in
    start t main image.Image.entry;
    make_ready t main;
    emit t L.launch p.pid;
    Ok ()
  end

(* --- fragmentation probes ----------------------------------------------------- *)

let try_alloc_contiguous t ~bytes =
  match Buddy.alloc_bytes t.nx.buddy bytes with
  | Ok addr ->
    let rec order_of n o = if 1 lsl o >= n then o else order_of n (o + 1) in
    Buddy.free t.nx.buddy ~addr ~order:(order_of bytes Buddy.min_order);
    true
  | Error _ -> false

let churn t ~allocations ~seed =
  let rng = Rng.create seed in
  let live = ref [] in
  for _ = 1 to allocations do
    let order = Buddy.min_order + Rng.int rng 8 in
    (match Buddy.alloc t.nx.buddy ~order with
    | Ok addr -> live := (addr, order) :: !live
    | Error _ -> ());
    (* free roughly half of what we hold, at random *)
    if Rng.bool rng then begin
      match !live with
      | (addr, order) :: rest when Rng.bool rng ->
        Buddy.free t.nx.buddy ~addr ~order;
        live := rest
      | _ -> ()
    end
  done

(* Snapshot capture: closures (thread resume continuations) are captured
   by shape only; file contents and frame payloads by digest. *)
let capture t b =
  w_i b t.rank;
  w_b b t.booted;
  w_b b t.job_active;
  w_b b t.nx.stripped;
  w_i b t.next_pid;
  w_i b t.next_tid;
  w_i b t.nx.minor_faults;
  w_i b t.nx.major_faults;
  w_i b t.nx.reclaims;
  w_faults b t;
  w_list b
    (fun (pid, (p : proc)) ->
      w_i b pid;
      w_b b p.exited;
      w_i b p.px.text_end;
      w_i b (List.length p.threads);
      w_list b
        (fun (vp, f) ->
          w_i b vp;
          w_i b f)
        (sorted p.px.page_table);
      w_list b
        (fun (base, len, contents) ->
          w_i b base;
          w_i b len;
          Buffer.add_int64_le b (Fnv.add_bytes Fnv.empty contents))
        p.px.file_vmas;
      w_list b (fun (vp, ()) -> w_i b vp) (sorted p.px.write_protected);
      Bg_cio.Ioproxy.capture p.px.io b;
      Cnk.Mmap_tracker.capture p.tracker b)
    (sorted t.procs);
  w_list b
    (fun (tid, (th : thread)) ->
      w_i b tid;
      w_i b th.proc.pid;
      w_i b th.core_id;
      w_i b (state_code th.state);
      w_b b (th.resume <> None);
      w_i b th.tx.slice_left;
      w_opt b th.clear_child_tid;
      w_list b (w_i b) th.pending_sigs;
      w_b b th.futex_eintr)
    (sorted t.threads);
  Array.iter
    (fun (c : core) ->
      w_opt b (Option.map (fun (th : thread) -> th.tid) c.current);
      w_i b (Queue.length c.ready);
      Queue.iter (fun (th : thread) -> w_i b th.tid) c.ready;
      w_i b c.penalty;
      Noise_model.capture c.cx b)
    t.cores;
  Buddy.capture t.nx.buddy b;
  Cnk.Futex.capture t.futex b;
  Bg_cio.Fs.capture t.nx.fs b;
  Chip.capture t.chip b
