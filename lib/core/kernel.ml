(* The kernel scaffold CNK and the FWK baseline share: threads, processes,
   per-core run queues, futex and signal delivery, the coroutine step
   driver and the syscalls both kernels answer the same way. Each kernel
   supplies a [policy] record for the parts the paper says differ. *)

open Bg_engine
open Bg_hw
module Obs = Bg_obs.Obs
module Accounting = Bg_obs.Accounting
module Causal = Bg_obs.Causal

let sigsegv = 11

(* --- types ----------------------------------------------------------- *)

type thread_state = Running | Ready | Blocked | Zombie

type ('t, 'p) thread = {
  tid : int;
  proc : ('t, 'p) proc;
  core_id : int;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;
  mutable clear_child_tid : int option;
  mutable pending_sigs : int list;
  mutable futex_eintr : bool;  (* a signal interrupted the futex wait *)
  tx : 't;
}

and ('t, 'p) proc = {
  pid : int;
  tracker : Mmap_tracker.t;
  mutable handlers : (int * (int -> unit)) list;  (* by signal number *)
  mutable threads : ('t, 'p) thread list;
  mutable exited : bool;
  px : 'p;
}

type ('t, 'p, 'c) core = {
  id : int;
  mutable current : ('t, 'p) thread option;
  ready : ('t, 'p) thread Queue.t;
  mutable penalty : int;  (* cycles charged at the core's next consume *)
  cx : 'c;
}

type ('t, 'p) event =
  | Trap of ('t, 'p) thread * Sysreq.request
  | Signal of ('t, 'p) thread * int
  | Cloned of ('t, 'p) thread
  | Thread_exit of ('t, 'p) thread
  | Proc_exit of ('t, 'p) proc * int
  | Job_done

type ('t, 'p, 'c, 'n) t = {
  machine : Machine.t;
  rank : int;
  chip : Chip.t;
  cores : ('t, 'p, 'c) core array;
  futex : Futex.t;
  procs : (int, ('t, 'p) proc) Hashtbl.t;
  threads : (int, ('t, 'p) thread) Hashtbl.t;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable booted : bool;
  mutable job_active : bool;
  mutable live_procs : int;  (* processes in [procs] that have not exited *)
  mutable on_complete : (unit -> unit) option;
  mutable faults : (int * string) list;
  refresh_interval : int;  (* the chip's DRAM refresh period and stall *)
  refresh_stall : int;
  mutable refresh_lo : int;  (* the refresh window [lo, hi) the last *)
  mutable refresh_hi : int;  (* [refresh_stretch] ended in *)
  policy : ('t, 'p, 'c, 'n) policy;
  nx : 'n;
}

and ('t, 'p, 'c, 'n) policy = {
  read : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> int -> bytes;
  write : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> bytes -> bool;
  read_word : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> int;
  write_word : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> int -> unit;
  clear_tid : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> int -> unit;
  fault : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> string -> (unit -> unit) -> unit;
  consume :
    ('t, 'p, 'c, 'n) t ->
    ('t, 'p) thread ->
    int ->
    (unit, Coro.step) Effect.Deep.continuation ->
    unit;
  switch_in : ('t, 'p, 'c, 'n) t -> ('t, 'p, 'c) core -> ('t, 'p) thread -> int;
  syscall_cycles : int;
  syscall :
    ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> Sysreq.request -> (Sysreq.reply -> unit) -> unit;
  clone : ('t, 'p, 'c, 'n) t -> ('t, 'p) thread -> Sysreq.clone_flags -> (int * 't, Errno.t) result;
  hook : ('t, 'p, 'c, 'n) t -> ('t, 'p) event -> unit;
}

exception Fault of string

(* --- helpers ---------------------------------------------------------- *)

let sim t = t.machine.Machine.sim
let memory t = Chip.memory t.chip

let emit t label value =
  Sim.emit (sim t) ~label ~value:((t.rank * 1_000_000) + value)

let obs t = t.machine.Machine.obs
let acct t = t.machine.Machine.acct
let causal t = t.machine.Machine.causal

(* Mint a causal node on this rank, program-order chained unless said
   otherwise. Returns [Causal.none] (and records nothing) when causal
   collection is off — carriers then ship context 0. *)
let causal_mint ?(chain = true) t label ~core =
  let c = causal t in
  if Causal.enabled c then Causal.mint_l c ~chain label ~rank:t.rank ~core ~now:(Sim.now (sim t))
  else Causal.none

let acct_switch t ~core state =
  Accounting.switch (acct t) ~rank:t.rank ~core ~now:(Sim.now t.machine.Machine.sim) state

(* Both kernels report RAS events through here; the counter gives the
   health service a per-kernel emission series. *)
let ras t ev =
  Obs.add (obs t) ~rank:t.rank ~core:Obs.node_scope Metrics.Kernel.ras_emitted 1;
  Machine.ras_emit t.machine ~rank:t.rank ev

let ras_note t severity text = ras t (Machine.Note { severity; text })

(* The residual noise floor: a consume spanning k refresh windows pays k
   short stalls. Deterministic in absolute time. Most consumes start and
   end inside the window the previous one ended in, so that window is
   kept on the kernel and such a consume costs two compares, no
   division. *)
let refresh_stretch t start n =
  let stop = start + n in
  if start >= t.refresh_lo && stop < t.refresh_hi then n
  else if t.refresh_interval <= 0 then n
  else begin
    let interval = t.refresh_interval in
    let w = stop / interval in
    t.refresh_lo <- w * interval;
    t.refresh_hi <- t.refresh_lo + interval;
    n + ((w - (start / interval)) * t.refresh_stall)
  end

module Api = struct
  let machine t = t.machine
  let rank t = t.rank
  let chip t = t.chip
  let booted t = t.booted
  let job_active t = t.job_active
  let on_job_complete t f = t.on_complete <- Some f
  let faults t = List.rev t.faults

  let live_threads t =
    Hashtbl.fold (fun _ th acc -> if th.state <> Zombie then acc + 1 else acc) t.threads 0
end

let create machine ~rank ~core ~policy nx =
  let chip = Machine.chip machine rank in
  {
    machine;
    rank;
    chip;
    cores =
      Array.init (Chip.params chip).Params.cores_per_node (fun id ->
          { id; current = None; ready = Queue.create (); penalty = 0; cx = core id });
    futex = Futex.create ();
    procs = Hashtbl.create 4;
    threads = Hashtbl.create 16;
    next_pid = 1;
    next_tid = 1;
    booted = false;
    job_active = false;
    live_procs = 0;
    on_complete = None;
    faults = [];
    refresh_interval = (Chip.params chip).Params.dram_refresh_interval_cycles;
    refresh_stall = (Chip.params chip).Params.dram_refresh_stall_cycles;
    refresh_lo = 0;
    refresh_hi = 0;
    policy;
    nx;
  }

(* --- run queues ------------------------------------------------------- *)

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
        (* the context switch is kernel overhead; the thread's own cycles
           start when the resume fires *)
        acct_switch t ~core:core.id Accounting.Kernel;
        let cycles = t.policy.switch_in t core th in
        let resume = th.resume in
        th.resume <- None;
        ignore
          (Sim.schedule_in (sim t) cycles (fun () ->
               if th.state = Running then begin
                 acct_switch t ~core:core.id Accounting.App;
                 match resume with Some k -> k () | None -> ()
               end))
      end)

let core_idle t core =
  if core.current = None && Queue.is_empty core.ready then
    acct_switch t ~core:core.id Accounting.Idle

let vacate t th =
  let core = t.cores.(th.core_id) in
  (match core.current with
  | Some cur when cur.tid = th.tid -> core.current <- None
  | _ -> ());
  core

let release_core t th =
  let core = vacate t th in
  dispatch t core;
  core_idle t core

(* A thread can die while an event that would wake it is already in
   flight (e.g. the control system kills a job during image load, SSV.B);
   waking a Zombie would occupy its core forever with no continuation. *)
let make_ready t th =
  if th.state <> Zombie then begin
    let core = t.cores.(th.core_id) in
    th.state <- Ready;
    Queue.push th core.ready;
    dispatch t core
  end

(* Give up the core and go to the back of its run queue. *)
let requeue t th =
  let core = vacate t th in
  th.state <- Ready;
  Queue.push th core.ready;
  dispatch t core

(* --- thread lifecycle ------------------------------------------------- *)

let new_proc t ~tracker px =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p = { pid; tracker; handlers = []; threads = []; exited = false; px = px pid } in
  Hashtbl.replace t.procs pid p;
  t.live_procs <- t.live_procs + 1;
  p

let spawn t p ~core_id ?clear_child_tid tx =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    { tid; proc = p; core_id; state = Ready; resume = None; clear_child_tid; pending_sigs = [];
      futex_eintr = false; tx }
  in
  Hashtbl.add t.threads tid th;
  p.threads <- th :: p.threads;
  th

let check_job_done t =
  if t.job_active && t.live_procs = 0 then begin
    t.job_active <- false;
    t.policy.hook t Job_done;
    match t.on_complete with
    | Some f ->
      t.on_complete <- None;
      f ()
    | None -> ()
  end

let rec thread_exit t th code =
  if th.state <> Zombie then begin
    th.state <- Zombie;
    th.resume <- None;
    t.policy.hook t (Thread_exit th);
    ignore (Futex.remove t.futex ~tid:th.tid);
    (* CLONE_CHILD_CLEARTID: zero the tid word and wake one joiner. A word
       outside the map is skipped (CNK's static lookup raises
       [Invalid_argument] there). *)
    (match th.clear_child_tid with
    | Some addr -> (
      try
        t.policy.clear_tid t th addr;
        ignore (wake_futex t th.proc addr 1)
      with Fault _ | Invalid_argument _ -> ())
    | None -> ());
    let p = th.proc in
    p.threads <- List.filter (fun x -> x.tid <> th.tid) p.threads;
    release_core t th;
    if p.threads = [] && not p.exited then begin
      p.exited <- true;
      t.live_procs <- t.live_procs - 1;
      t.policy.hook t (Proc_exit (p, code));
      check_job_done t
    end
  end

and wake_futex t p addr count =
  let tids = Futex.wake t.futex ~pid:p.pid ~addr ~count in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.threads tid with
      | Some th when th.state = Blocked -> make_ready t th
      | _ -> ())
    tids;
  List.length tids

(* Handlers are kernel-invoked closures (effect-free); a fatal signal with
   no handler kills the thread. Returns [true] if the thread survived. *)
let deliver_pending t th =
  let pending = List.rev th.pending_sigs in
  th.pending_sigs <- [];
  List.for_all
    (fun signo ->
      match List.assoc_opt signo th.proc.handlers with
      | Some h ->
        t.policy.hook t (Signal (th, signo));
        h signo;
        true
      | None ->
        t.faults <- (th.tid, Printf.sprintf "unhandled signal %d" signo) :: t.faults;
        ras t (Machine.Thread_death { tid = th.tid; cause = Unhandled_signal signo });
        thread_exit t th signo;
        false)
    pending

(* Every consume ends here; with nothing pending it builds nothing. *)
let deliver_signals t th = match th.pending_sigs with [] -> true | _ -> deliver_pending t th

(* --- the step driver --------------------------------------------------- *)

(* Wrap a syscall continuation so the dispatch-to-reply interval lands in
   the observability layer: a "syscall" span plus a per-kind latency
   timer. Purely passive — no events, no RNG — so the architectural trace
   digest is unchanged whether collection is on or off. Exit syscalls
   never return, so they get no span. Comparing the two kernels' timers
   side by side is the paper's Table II in live form. *)
let instrument_syscall t th req k =
  let o = obs t in
  let c = causal t in
  if not (Obs.enabled o || Causal.enabled c) then k
  else
    match req with
    | Sysreq.Exit_thread _ | Sysreq.Exit_group _ -> k
    | _ ->
      let start = Sim.now (sim t) in
      let h =
        if Obs.enabled o then
          Some
            (Obs.span_begin_l o (Sysreq.syscall_label req) ~rank:t.rank ~core:th.core_id
               ~now:start)
        else None
      in
      (* Causal: entry and exit are program-order chained on this core's
         lane, so whatever the syscall caused in between (a function
         ship, a DMA injection) hangs between two anchors. *)
      ignore (causal_mint t (Sysreq.entry_label req) ~core:th.core_id);
      fun reply ->
        let now = Sim.now (sim t) in
        (match h with
        | Some h ->
          Obs.span_end o h ~now;
          let kind = Sysreq.request_kind req in
          Obs.observe o ~rank:t.rank ~core:Obs.node_scope Metrics.Kernel.syscall_cycles.(kind)
            (now - start);
          Obs.add o ~rank:t.rank ~core:th.core_id Metrics.Kernel.syscalls.(kind) 1
        | None -> ());
        ignore (causal_mint t (Sysreq.exit_label req) ~core:th.core_id);
        k reply

(* Charge trap-to-reply to [Syscall] in the cycle ledger. Exit syscalls
   never reply; their cycles end with the thread. *)
let account_syscall t th req k =
  match req with
  | Sysreq.Exit_thread _ | Sysreq.Exit_group _ -> k
  | _ ->
    acct_switch t ~core:th.core_id Accounting.Syscall;
    fun reply ->
      acct_switch t ~core:th.core_id Accounting.App;
      k reply

let rec step t th (s : Coro.step) =
  if th.state <> Zombie then
    match s with
    | Coro.Finished -> thread_exit t th 0
    | Coro.Crashed e ->
      let reason = Printexc.to_string e in
      t.faults <- (th.tid, reason) :: t.faults;
      ras t (Machine.Thread_death { tid = th.tid; cause = Crashed reason });
      thread_exit t th 1
    | Coro.Yield k ->
      th.resume <- Some (fun () -> step t th (Effect.Deep.continue k ()));
      requeue t th
    | Coro.Consume (n, k) -> t.policy.consume t th n k
    | Coro.Load (addr, len, k) -> (
      match t.policy.read t th addr len with
      | data -> step t th (Effect.Deep.continue k data)
      | exception Fault reason ->
        (* a fault policy that survives drops the access: it reads as zero *)
        t.policy.fault t th reason (fun () ->
            step t th (Effect.Deep.continue k (Bytes.make len '\000'))))
    | Coro.Store (addr, data, k) -> (
      match t.policy.write t th addr data with
      | true -> step t th (Effect.Deep.continue k ())
      | false -> if deliver_signals t th then step t th (Effect.Deep.continue k ())
      | exception Fault reason ->
        t.policy.fault t th reason (fun () -> step t th (Effect.Deep.continue k ())))
    | Coro.Cas (addr, expected, desired, k) -> (
      match
        let v = t.policy.read_word t th addr in
        if v = expected then t.policy.write_word t th addr desired;
        v = expected
      with
      | swapped -> step t th (Effect.Deep.continue k swapped)
      | exception Fault reason ->
        t.policy.fault t th reason (fun () -> step t th (Effect.Deep.continue k false)))
    | Coro.Fetch_add (addr, delta, k) -> (
      match
        let v = t.policy.read_word t th addr in
        t.policy.write_word t th addr (v + delta);
        v
      with
      | v -> step t th (Effect.Deep.continue k v)
      | exception Fault reason ->
        t.policy.fault t th reason (fun () -> step t th (Effect.Deep.continue k 0)))
    | Coro.Syscall (req, k) ->
      t.policy.hook t (Trap (th, req));
      let k = instrument_syscall t th req (Effect.Deep.continue k) in
      let k = account_syscall t th req k in
      ignore
        (Sim.schedule_in (sim t) t.policy.syscall_cycles (fun () ->
             if th.state <> Zombie then handle_syscall t th req k))

(* --- the syscalls both kernels answer alike ----------------------------- *)

and handle_syscall t th (req : Sysreq.request) k =
  let p = th.proc in
  let ret reply = step t th (k reply) in
  match req with
  | Sysreq.Getpid -> ret (Sysreq.R_int p.pid)
  | Sysreq.Gettid -> ret (Sysreq.R_int th.tid)
  | Sysreq.Get_rank -> ret (Sysreq.R_int t.rank)
  | Sysreq.Gettimeofday -> ret (Sysreq.R_int (int_of_float (Cycles.to_us (Sim.now (sim t)))))
  | Sysreq.Mmap { length; fd = None; _ } -> (
    match Mmap_tracker.mmap p.tracker ~length with
    | Ok addr -> ret (Sysreq.R_int addr)
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Munmap { addr; length } -> (
    match Mmap_tracker.munmap p.tracker ~addr ~length with
    | Ok () -> ret Sysreq.R_unit
    | Error e -> ret (Sysreq.R_err e))
  | Sysreq.Set_tid_address addr ->
    th.clear_child_tid <- Some addr;
    ret (Sysreq.R_int th.tid)
  | Sysreq.Clone { flags; stack_hint = _; tls = _; parent_tid_addr; child_tid_addr; entry } -> (
    match t.policy.clone t th flags with
    | Error e -> ret (Sysreq.R_err e)
    | Ok (core_id, tx) ->
      let clear_child_tid = if child_tid_addr <> 0 then Some child_tid_addr else None in
      let child = spawn t p ~core_id ?clear_child_tid tx in
      (* CLONE_PARENT_SETTID / CLONE_CHILD_SETTID: the kernel publishes
         the tid in both words before the child can run or exit, so a
         joiner never sees a stale zero-then-set window. *)
      let publish addr =
        if addr <> 0 then (try t.policy.write_word t th addr child.tid with Fault _ -> ())
      in
      publish parent_tid_addr;
      publish child_tid_addr;
      start t child entry;
      t.policy.hook t (Cloned child);
      make_ready t child;
      ret (Sysreq.R_int child.tid))
  | Sysreq.Exit_thread code -> thread_exit t th code
  | Sysreq.Exit_group code ->
    List.iter (fun other -> thread_exit t other code)
      (List.filter (fun x -> x.tid <> th.tid) p.threads);
    thread_exit t th code
  | Sysreq.Sigaction { signo; handler } ->
    let others = List.remove_assoc signo p.handlers in
    p.handlers <- (match handler with Some h -> (signo, h) :: others | None -> others);
    ret Sysreq.R_unit
  | Sysreq.Tgkill { tid; signo } -> (
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
      ret Sysreq.R_unit)
  | Sysreq.Sched_yield ->
    th.resume <- Some (fun () -> ret (Sysreq.R_int 0));
    requeue t th
  | Sysreq.Futex_wait { addr; expected } -> (
    match t.policy.read_word t th addr with
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
  | Sysreq.Query_perf op -> (
    (* both kernels expose the same UPC silicon (Linux through its perf
       layer) *)
    let upc = Chip.upc t.chip in
    match op with
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
  | _ -> t.policy.syscall t th req ret

and start t th entry = th.resume <- Some (fun () -> step t th (Coro.start entry))

(* --- snapshot capture helpers ------------------------------------------ *)

let w_i b v = Buffer.add_int64_le b (Int64.of_int v)
let w_b b v = Buffer.add_uint8 b (if v then 1 else 0)

let w_opt b = function
  | None -> Buffer.add_uint8 b 0
  | Some v ->
    Buffer.add_uint8 b 1;
    w_i b v

let w_s b s =
  w_i b (String.length s);
  Buffer.add_string b s

(* Length-prefixed list. *)
let w_list b f l =
  w_i b (List.length l);
  List.iter f l

let state_code = function Running -> 0 | Ready -> 1 | Blocked -> 2 | Zombie -> 3

(* Hashtable bindings sorted by key, so capture never depends on hash
   iteration order. *)
let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> compare a b)

let w_faults b t =
  w_list b
    (fun (tid, msg) ->
      w_i b tid;
      w_s b msg)
    (List.rev t.faults)
