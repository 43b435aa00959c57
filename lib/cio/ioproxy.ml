type open_file = {
  inode : Fs.inode;
  flags : Sysreq.open_flags;
  mutable offset : int;
}

type t = {
  fs : Fs.t;
  rank : int;
  pid : int;
  mutable cwd : string;
  mutable fds : (int, open_file) Hashtbl.t option;
      (* no table until the first descriptor: most proxies never open one *)
  mutable next_fd : int;
  mutable closed : bool;
}

let fd_limit = 1024

let create fs ~rank ~pid =
  { fs; rank; pid; cwd = "/"; fds = None; next_fd = 3; closed = false }

let fd_table t =
  match t.fds with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 16 in
    t.fds <- Some h;
    h

let fold_fds t f init = match t.fds with None -> init | Some h -> Hashtbl.fold f h init

let rank t = t.rank
let pid t = t.pid
let cwd t = t.cwd
let open_fds t = match t.fds with None -> 0 | Some h -> Hashtbl.length h

let ok_int i = Sysreq.R_int i
let err e = Sysreq.R_err e

let of_result f = function Ok v -> f v | Error e -> err e

let with_fd t fd f =
  match t.fds with
  | Some h -> ( match Hashtbl.find_opt h fd with Some o -> f o | None -> err Errno.EBADF)
  | None -> err Errno.EBADF

let do_open t path flags mode =
  if open_fds t >= fd_limit then err Errno.EMFILE
  else
    of_result
      (fun inode ->
        let fd = t.next_fd in
        t.next_fd <- fd + 1;
        let offset = if flags.Sysreq.append then Fs.size t.fs inode else 0 in
        Hashtbl.replace (fd_table t) fd { inode; flags; offset };
        ok_int fd)
      (Fs.open_file t.fs ~cwd:t.cwd path ~flags ~mode)

let do_read t fd len =
  with_fd t fd (fun o ->
      if not o.flags.Sysreq.rd then err Errno.EBADF
      else
        of_result
          (fun data ->
            o.offset <- o.offset + Bytes.length data;
            Sysreq.R_bytes data)
          (Fs.read t.fs o.inode ~offset:o.offset ~len))

let do_write t fd data =
  with_fd t fd (fun o ->
      if not o.flags.Sysreq.wr then err Errno.EBADF
      else begin
        let offset = if o.flags.Sysreq.append then Fs.size t.fs o.inode else o.offset in
        of_result
          (fun n ->
            o.offset <- offset + n;
            ok_int n)
          (Fs.write t.fs o.inode ~offset data)
      end)

let do_lseek t fd offset whence =
  with_fd t fd (fun o ->
      let base =
        match whence with
        | Sysreq.Seek_set -> 0
        | Sysreq.Seek_cur -> o.offset
        | Sysreq.Seek_end -> Fs.size t.fs o.inode
      in
      let target = base + offset in
      if target < 0 then err Errno.EINVAL
      else begin
        o.offset <- target;
        ok_int target
      end)

let handle t req =
  if t.closed then err Errno.EBADF
  else
  match req with
  | Sysreq.Open { path; flags; mode } -> do_open t path flags mode
  | Sysreq.Close fd ->
    with_fd t fd (fun _ ->
        Hashtbl.remove (fd_table t) fd;
        Sysreq.R_unit)
  | Sysreq.Read { fd; len } -> do_read t fd len
  | Sysreq.Write { fd; data } -> do_write t fd data
  | Sysreq.Pread { fd; len; offset } ->
    with_fd t fd (fun o ->
        if not o.flags.Sysreq.rd then err Errno.EBADF
        else of_result (fun d -> Sysreq.R_bytes d) (Fs.read t.fs o.inode ~offset ~len))
  | Sysreq.Pwrite { fd; data; offset } ->
    with_fd t fd (fun o ->
        if not o.flags.Sysreq.wr then err Errno.EBADF
        else of_result ok_int (Fs.write t.fs o.inode ~offset data))
  | Sysreq.Lseek { fd; offset; whence } -> do_lseek t fd offset whence
  | Sysreq.Fstat fd -> with_fd t fd (fun o -> Sysreq.R_stat (Fs.stat t.fs o.inode))
  | Sysreq.Stat path ->
    of_result (fun i -> Sysreq.R_stat (Fs.stat t.fs i)) (Fs.resolve t.fs ~cwd:t.cwd path)
  | Sysreq.Ftruncate { fd; length } ->
    with_fd t fd (fun o ->
        if not o.flags.Sysreq.wr then err Errno.EBADF
        else of_result (fun () -> Sysreq.R_unit) (Fs.truncate t.fs o.inode ~len:length))
  | Sysreq.Unlink path ->
    of_result (fun () -> Sysreq.R_unit) (Fs.unlink t.fs ~cwd:t.cwd path)
  | Sysreq.Mkdir { path; mode } ->
    of_result (fun () -> Sysreq.R_unit) (Fs.mkdir t.fs ~cwd:t.cwd path ~mode)
  | Sysreq.Rmdir path -> of_result (fun () -> Sysreq.R_unit) (Fs.rmdir t.fs ~cwd:t.cwd path)
  | Sysreq.Readdir path ->
    of_result (fun names -> Sysreq.R_names names) (Fs.readdir t.fs ~cwd:t.cwd path)
  | Sysreq.Chdir path ->
    of_result
      (fun canonical ->
        t.cwd <- canonical;
        Sysreq.R_unit)
      (Fs.canonicalize t.fs ~cwd:t.cwd path)
  | Sysreq.Getcwd -> Sysreq.R_string t.cwd
  | Sysreq.Rename { src; dst } ->
    of_result (fun () -> Sysreq.R_unit) (Fs.rename t.fs ~cwd:t.cwd ~src ~dst)
  | Sysreq.Dup fd ->
    with_fd t fd (fun o ->
        if open_fds t >= fd_limit then err Errno.EMFILE
        else begin
          let nfd = t.next_fd in
          t.next_fd <- nfd + 1;
          Hashtbl.replace (fd_table t) nfd { inode = o.inode; flags = o.flags; offset = o.offset };
          ok_int nfd
        end)
  | Sysreq.Fsync fd -> with_fd t fd (fun _ -> Sysreq.R_unit)
  | _ -> err Errno.ENOSYS

let closed t = t.closed

(* Idempotent: a CIOD restart over the same [Fs] may tear a proxy down
   twice (once on crash cleanup, once on job end); the second call must
   neither raise nor disturb descriptors of a successor proxy. *)
let close_all t =
  if not t.closed then begin
    t.fds <- None;
    t.closed <- true
  end

(* --- crash-recovery snapshots ---------------------------------------- *)

type fd_snapshot = {
  snap_fd : int;
  snap_inode : Fs.inode;
  snap_flags : Sysreq.open_flags;
  snap_offset : int;
}

type snapshot = { snap_cwd : string; snap_next_fd : int; snap_fds : fd_snapshot list }

let snapshot t =
  let fds =
    fold_fds t
      (fun fd o acc ->
        { snap_fd = fd; snap_inode = o.inode; snap_flags = o.flags; snap_offset = o.offset }
        :: acc)
      []
  in
  {
    snap_cwd = t.cwd;
    snap_next_fd = t.next_fd;
    snap_fds = List.sort (fun a b -> compare a.snap_fd b.snap_fd) fds;
  }

let w_flags b (f : Sysreq.open_flags) =
  let w_b v = Buffer.add_uint8 b (if v then 1 else 0) in
  w_b f.Sysreq.rd;
  w_b f.Sysreq.wr;
  w_b f.Sysreq.creat;
  w_b f.Sysreq.trunc;
  w_b f.Sysreq.append;
  w_b f.Sysreq.excl

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_s s =
    w_i (String.length s);
    Buffer.add_string b s
  in
  w_i t.rank;
  w_i t.pid;
  w_s t.cwd;
  w_i t.next_fd;
  Buffer.add_uint8 b (if t.closed then 1 else 0);
  let fds =
    fold_fds t (fun fd o acc -> (fd, o) :: acc) []
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  w_i (List.length fds);
  List.iter
    (fun (fd, o) ->
      w_i fd;
      w_i (Fs.inode_id o.inode);
      w_flags b o.flags;
      w_i o.offset)
    fds

let capture_snapshot snap b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_s s =
    w_i (String.length s);
    Buffer.add_string b s
  in
  w_s snap.snap_cwd;
  w_i snap.snap_next_fd;
  w_i (List.length snap.snap_fds);
  List.iter
    (fun s ->
      w_i s.snap_fd;
      w_i (Fs.inode_id s.snap_inode);
      w_flags b s.snap_flags;
      w_i s.snap_offset)
    snap.snap_fds

let restore fs ~rank ~pid snap =
  let t = create fs ~rank ~pid in
  t.cwd <- snap.snap_cwd;
  t.next_fd <- snap.snap_next_fd;
  List.iter
    (fun s ->
      Hashtbl.replace (fd_table t) s.snap_fd
        { inode = s.snap_inode; flags = s.snap_flags; offset = s.snap_offset })
    snap.snap_fds;
  t
