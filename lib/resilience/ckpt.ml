open Bg_engine
module Obs = Bg_obs.Obs
module Libc = Bg_rt.Libc

type strategy = Parity_inplace | Rollback

type spec = {
  name : string;
  steps : int;
  step_cycles : int;
  state_bytes : int;
  ckpt_every : int;
  full_every : int;
  strategy : strategy;
}

type outcome = {
  rank_index : int;
  machine_rank : int;
  final_step : int;
  state_digest : Fnv.t;
  parity_redos : int;
  restored_step : int;
}

let sigbus = 7
let chunk = 16 * 1024

(* State layout: [0..8) the last completed step, slots of 64 bytes from
   offset 64 on; step k rewrites slot (k-1) mod slots with a pattern that
   is a pure function of (logical rank, k) — so the host can mirror the
   final state byte for byte and recovery bugs show up as digest splits. *)
let slot_bytes = 64
let data_off = 64
let slots spec = (spec.state_bytes - data_off) / slot_bytes
let slot_of spec step = (step - 1) mod slots spec

let fill_slot ~rank_index ~step b off =
  for j = 0 to slot_bytes - 1 do
    Bytes.set b (off + j) (Char.chr (((rank_index * 31) + (step * 7) + j) land 0xff))
  done

let expected_digest spec ~rank_index =
  let b = Bytes.make spec.state_bytes '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int spec.steps);
  for step = 1 to spec.steps do
    fill_slot ~rank_index ~step b (data_off + (slot_of spec step * slot_bytes))
  done;
  Fnv.add_bytes Fnv.empty b

(* -- checkpoint files --------------------------------------------------

   Keyed by logical rank so a restart finds its state on any partition.
   Full images go through Apps.Checkpoint (self-describing region list);
   deltas use a tiny [count][addr len]...[data] format of their own.
   A version exists once `<name>.c<v>` does — written by logical rank 0
   only after a barrier confirmed every rank's file is durable. *)

let full_name spec idx v = Printf.sprintf "%s.r%d.f%d" spec.name idx v
let delta_name spec idx v = Printf.sprintf "%s.r%d.d%d" spec.name idx v
let delta_path spec idx v = "/ckpt/" ^ delta_name spec idx v
let commit_prefix spec = spec.name ^ ".c"
let is_full spec v = spec.full_every <= 1 || v mod spec.full_every = 1
let full_base spec v = if spec.full_every <= 1 then v else v - ((v - 1) mod spec.full_every)
let rw_create = { Sysreq.o_rdwr with Sysreq.creat = true; trunc = true }

(* A commit marker only names a version; this rank can restore it only if
   the same directory listing also shows the full base image and every
   delta from there up. The cross-check is pure logic over the one
   readdir the old code already did — so a kill that lands between the
   commit phases (data files durable, marker not yet / marker durable
   but a later run's data lost) degrades to the newest whole version
   instead of a torn restore. Newest first. *)
let committed_versions spec ~idx =
  match Libc.readdir "/ckpt" with
  | exception Sysreq.Syscall_error _ -> []
  | names ->
    let have = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace have n ()) names;
    let p = commit_prefix spec in
    let pl = String.length p in
    let marks =
      List.filter_map
        (fun n ->
          if String.length n > pl && String.sub n 0 pl = p then
            int_of_string_opt (String.sub n pl (String.length n - pl))
          else None)
        names
    in
    let restorable v =
      let vf = full_base spec v in
      Hashtbl.mem have (full_name spec idx vf)
      &&
      let rec deltas w = w > v || (Hashtbl.mem have (delta_name spec idx w) && deltas (w + 1)) in
      deltas (vf + 1)
    in
    List.sort (fun a b -> compare b a) (List.filter restorable marks)

let write_commit spec ~v ~step =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.set_int64_le b 8 (Int64.of_int step);
  let fd = Libc.openf ~flags:rw_create ("/ckpt/" ^ commit_prefix spec ^ string_of_int v) in
  ignore (Libc.write fd b);
  Libc.close fd

let write_delta spec ~idx ~v ~base =
  let lo = base and hi = base + spec.state_bytes in
  let ranges =
    Libc.query_dirty ~clear:true
    |> List.filter_map (fun (a, l) ->
           let a' = max a lo and e = min (a + l) hi in
           if a' < e then Some (a', e - a') else None)
  in
  (* Bg_snap.Snap.Sparse owns the delta wire format; the write sequence
     (one header write, then <=16 KiB data writes) is unchanged so CIO
     service timing — and with it the resilience digests — stays put. *)
  let head = Bg_snap.Snap.Sparse.encode_header ranges in
  let fd = Libc.openf ~flags:rw_create (delta_path spec idx v) in
  let total = ref (Libc.write fd head) in
  List.iter
    (fun (a, l) ->
      let off = ref 0 in
      while !off < l do
        let n = min chunk (l - !off) in
        total := !total + Libc.write fd (Coro.load ~addr:(a + !off) ~len:n);
        off := !off + n
      done)
    ranges;
  Libc.close fd;
  !total

(* Validate before touching memory: a truncated body or a range outside
   this rank's state region returns [false] with the image untouched, so
   the caller can fall back to an older version instead of resuming on a
   half-applied delta. *)
let apply_delta spec ~idx ~v ~base =
  match Libc.openf ~flags:Sysreq.o_rdonly (delta_path spec idx v) with
  | exception Sysreq.Syscall_error _ -> false
  | fd -> (
    let size = (Libc.fstat fd).Sysreq.st_size in
    let data = Libc.read fd ~len:size in
    Libc.close fd;
    match Bg_snap.Snap.Sparse.decode_header data with
    | Error _ -> false
    | Ok (ranges, data_off) ->
      let need = List.fold_left (fun acc (_, l) -> acc + l) data_off ranges in
      if
        need > Bytes.length data
        || List.exists
             (fun (a, l) -> l < 0 || a < base || a + l > base + spec.state_bytes)
             ranges
      then false
      else begin
        let doff = ref data_off in
        List.iter
          (fun (a, l) ->
            let off = ref 0 in
            while !off < l do
              let n = min chunk (l - !off) in
              Coro.store ~addr:(a + !off) (Bytes.sub data (!doff + !off) n);
              off := !off + n
            done;
            doff := !doff + l)
          ranges;
        true
      end)

(* Restore the newest committed-and-whole version: full base image, then
   every delta up to it; fall back down the version list if a file that
   passed the listing cross-check still fails to restore (corrupt header,
   truncated body). Returns (version, step) — (0, 0) means start fresh. *)
let try_restore spec ~idx ~base =
  let rec attempt = function
    | [] -> (0, 0)
    | v :: rest -> (
      let vf = full_base spec v in
      match
        Bg_apps.Checkpoint.restore ~name:(full_name spec idx vf)
          ~regions:[ (base, spec.state_bytes) ]
      with
      | Ok () ->
        let rec deltas w = w > v || (apply_delta spec ~idx ~v:w ~base && deltas (w + 1)) in
        if deltas (vf + 1) then (v, Libc.peek base) else attempt rest
      | Error _ -> attempt rest)
  in
  attempt (committed_versions spec ~idx)

let job_factory ~fabric spec =
  if spec.state_bytes < 128 then invalid_arg "Ckpt.job_factory: state_bytes < 128";
  if spec.steps < 1 || spec.step_cycles < 1 then invalid_arg "Ckpt.job_factory";
  let machine = Bg_msg.Dcmf.machine fabric in
  let obs = machine.Machine.obs in
  let outcomes = ref [] in
  let factory ~ranks =
    let n = List.length ranks in
    (* fresh collective state per incarnation: a killed incarnation's
       half-finished barrier must not leak arrivals into the next one *)
    let coll = Bg_msg.Mpi.Coll.create fabric ~participants:n in
    let entry () =
      let me = Libc.rank () in
      let idx =
        let rec find i = function
          | [] -> invalid_arg "Ckpt: rank not in partition"
          | r :: _ when r = me -> i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 ranks
      in
      let mpi = Bg_msg.Mpi.create (Bg_msg.Dcmf.attach fabric ~rank:me) in
      let barrier () = ignore (Bg_msg.Mpi.Coll.allreduce_sum coll mpi 1.) in
      let base = Libc.sbrk spec.state_bytes in
      let regions = [ (base, spec.state_bytes) ] in
      let version, start_step = try_restore spec ~idx ~base in
      if version = 0 then begin
        (* Fresh start: scrub the region, as CNK scrubs memory between
           jobs — on a busy machine this heap hosted someone else's job a
           moment ago, and untouched slots must read as zero, not as the
           previous tenant's state. (A successful restore rewrites the
           whole region, so only the fresh path scrubs.) *)
        let zeros = Bytes.make chunk '\000' in
        let off = ref 0 in
        while !off < spec.state_bytes do
          let n = min chunk (spec.state_bytes - !off) in
          Coro.store ~addr:(base + !off)
            (if n = chunk then zeros else Bytes.sub zeros 0 n);
          off := !off + n
        done
      end;
      (* restoring (or scrubbing) dirtied the whole image; deltas restart
         from here *)
      ignore (Libc.query_dirty ~clear:true);
      if start_step > 0 then Obs.count obs Metrics.Resilience.restores;
      let hit = ref false and redos = ref 0 in
      (match spec.strategy with
      | Parity_inplace ->
        (* CNK §V.B: the parity SIGBUS is survivable — note it and redo *)
        Libc.sigaction ~signo:sigbus (Some (fun _ -> hit := true))
      | Rollback ->
        (* FWK stand-in: no in-place story; the fault kills the job and
           recovery must roll back to the last checkpoint *)
        ());
      let v = ref version in
      for step = start_step + 1 to spec.steps do
        let rec attempt () =
          hit := false;
          Coro.consume spec.step_cycles;
          if !hit then begin
            incr redos;
            Obs.count obs Metrics.Resilience.parity_redos;
            attempt ()
          end
        in
        attempt ();
        let b = Bytes.create slot_bytes in
        fill_slot ~rank_index:idx ~step b 0;
        Coro.store ~addr:(base + data_off + (slot_of spec step * slot_bytes)) b;
        Libc.poke base step;
        Obs.count obs Metrics.Resilience.steps_executed;
        if spec.ckpt_every > 0 && step mod spec.ckpt_every = 0 && step < spec.steps
        then begin
          barrier () (* quiesce: every rank at the same step *);
          let t0 = Coro.rdtsc () in
          incr v;
          let bytes =
            if is_full spec !v then begin
              let b =
                Bg_apps.Checkpoint.save ~name:(full_name spec idx !v) ~regions
              in
              ignore (Libc.query_dirty ~clear:true);
              Obs.count obs Metrics.Resilience.ckpt_full;
              b
            end
            else begin
              Obs.count obs Metrics.Resilience.ckpt_delta;
              write_delta spec ~idx ~v:!v ~base
            end
          in
          Obs.add obs ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Resilience.ckpt_bytes bytes;
          barrier () (* everyone durable before the version commits *);
          if idx = 0 then write_commit spec ~v:!v ~step;
          Obs.observe obs ~rank:Obs.node_scope ~core:Obs.node_scope Metrics.Resilience.ckpt_cycles
            (Coro.rdtsc () - t0)
        end
      done;
      let digest = ref Fnv.empty in
      let off = ref 0 in
      while !off < spec.state_bytes do
        let nb = min chunk (spec.state_bytes - !off) in
        digest := Fnv.add_bytes !digest (Coro.load ~addr:(base + !off) ~len:nb);
        off := !off + nb
      done;
      outcomes :=
        {
          rank_index = idx;
          machine_rank = me;
          final_step = Libc.peek base;
          state_digest = !digest;
          parity_redos = !redos;
          restored_step = start_step;
        }
        :: !outcomes
    in
    Job.create ~name:spec.name (Image.executable ~name:spec.name entry)
  in
  let collect () =
    List.sort (fun a b -> compare a.rank_index b.rank_index) !outcomes
  in
  (factory, collect)
