(* File contents live in fixed-size pages that never move once
   allocated, so a growing file never copies what it already holds.
   [pages.(k)] covers bytes [k * page_size, (k + 1) * page_size); a page
   never written is [absent] and reads as zeros. Bytes at or past [len]
   are always zero, so a file that grows again (write past EOF, truncate
   up) exposes zeros without clearing anything. *)
type file = { mutable pages : bytes array; mutable len : int; mutable perm : int }
type dir = { entries : (string, int) Hashtbl.t; mutable dperm : int }

type node_data = File of file | Dir of dir

type inode = int

type t = { nodes : (int, node_data) Hashtbl.t; mutable next : int }

let root : inode = 0

let create () =
  let t = { nodes = Hashtbl.create 64; next = 1 } in
  Hashtbl.add t.nodes root (Dir { entries = Hashtbl.create 8; dperm = 0o755 });
  t

let node t i = Hashtbl.find t.nodes i

let alloc t data =
  let i = t.next in
  t.next <- i + 1;
  Hashtbl.add t.nodes i data;
  i

(* --- path handling ------------------------------------------------- *)

(* Split a path into components, handling cwd-relative paths, '.', '..'
   and repeated slashes. The result is the component list from the root. *)
let components ~cwd path =
  if String.length path > 4096 then Error Errno.ENAMETOOLONG
  else begin
    let full = if String.length path > 0 && path.[0] = '/' then path else cwd ^ "/" ^ path in
    let parts = String.split_on_char '/' full in
    let rec norm acc = function
      | [] -> Ok (List.rev acc)
      | ("" | ".") :: rest -> norm acc rest
      | ".." :: rest -> (
        match acc with
        | [] -> norm [] rest (* /.. is / *)
        | _ :: up -> norm up rest)
      | c :: rest -> norm (c :: acc) rest
    in
    norm [] parts
  end

let child t dir_inode name =
  match node t dir_inode with
  | Dir d -> (
    match Hashtbl.find_opt d.entries name with
    | Some i -> Ok i
    | None -> Error Errno.ENOENT)
  | File _ -> Error Errno.ENOTDIR

let rec walk t cur = function
  | [] -> Ok cur
  | c :: rest -> (
    match child t cur c with Ok i -> walk t i rest | Error e -> Error e)

let resolve t ~cwd path =
  match components ~cwd path with
  | Error e -> Error e
  | Ok comps -> walk t root comps

let lookup_parent t ~cwd path =
  match components ~cwd path with
  | Error e -> Error e
  | Ok [] -> Error Errno.EEXIST (* the root itself *)
  | Ok comps -> (
    let rec split_last acc = function
      | [ last ] -> (List.rev acc, last)
      | x :: rest -> split_last (x :: acc) rest
      | [] -> assert false
    in
    let dirs, name = split_last [] comps in
    match walk t root dirs with
    | Error e -> Error e
    | Ok parent -> (
      match node t parent with
      | Dir _ -> Ok (parent, name)
      | File _ -> Error Errno.ENOTDIR))

(* --- files --------------------------------------------------------- *)

let is_dir t i = match node t i with Dir _ -> true | File _ -> false
let kind t i = if is_dir t i then Sysreq.Directory else Sysreq.Regular

let size t i = match node t i with File f -> f.len | Dir d -> Hashtbl.length d.entries

let stat t i =
  match node t i with
  | File f -> { Sysreq.st_size = f.len; st_kind = Sysreq.Regular; st_perm = f.perm }
  | Dir d ->
    { Sysreq.st_size = Hashtbl.length d.entries; st_kind = Sysreq.Directory; st_perm = d.dperm }

let open_file t ~cwd path ~flags ~mode =
  match resolve t ~cwd path with
  | Ok i -> (
    if flags.Sysreq.excl && flags.Sysreq.creat then Error Errno.EEXIST
    else
      match node t i with
      | Dir _ -> if flags.Sysreq.wr then Error Errno.EISDIR else Ok i
      | File f ->
        if flags.Sysreq.trunc then begin
          f.pages <- [||];
          f.len <- 0
        end;
        Ok i)
  | Error Errno.ENOENT when flags.Sysreq.creat -> (
    match lookup_parent t ~cwd path with
    | Error e -> Error e
    | Ok (parent, name) -> (
      match node t parent with
      | File _ -> Error Errno.ENOTDIR
      | Dir d ->
        let i = alloc t (File { pages = [||]; len = 0; perm = mode }) in
        Hashtbl.replace d.entries name i;
        Ok i))
  | Error e -> Error e

let with_file t i f =
  match node t i with File file -> f file | Dir _ -> Error Errno.EISDIR

let page_bits = 12
let page_size = 1 lsl page_bits

(* Shared, never written: stands for every page not yet allocated. *)
let absent = Bytes.make page_size '\000'

let page f k = if k < Array.length f.pages then f.pages.(k) else absent

(* [f k ~pos ~at ~n] for each page piece of the byte range [off, off+len):
   page [k], bytes [pos, pos+n) of it, which sit [at] bytes into the
   range. *)
let iter_pieces ~off ~len f =
  let stop = off + len in
  let rec go o =
    if o < stop then begin
      let k = o lsr page_bits in
      let pos = o land (page_size - 1) in
      let n = min (page_size - pos) (stop - o) in
      f k ~pos ~at:(o - off) ~n;
      go (o + n)
    end
  in
  go off

let writable_page f k =
  if k >= Array.length f.pages then begin
    let grown = Array.make (max (k + 1) (2 * Array.length f.pages)) absent in
    Array.blit f.pages 0 grown 0 (Array.length f.pages);
    f.pages <- grown
  end;
  if f.pages.(k) == absent then f.pages.(k) <- Bytes.make page_size '\000';
  f.pages.(k)

let read t i ~offset ~len =
  if offset < 0 || len < 0 then Error Errno.EINVAL
  else
    with_file t i (fun f ->
        if offset >= f.len then Ok Bytes.empty
        else begin
          let n = min len (f.len - offset) in
          let out = Bytes.create n in
          iter_pieces ~off:offset ~len:n (fun k ~pos ~at ~n ->
              Bytes.blit (page f k) pos out at n);
          Ok out
        end)

let write t i ~offset data =
  if offset < 0 then Error Errno.EINVAL
  else
    with_file t i (fun f ->
        let n = Bytes.length data in
        iter_pieces ~off:offset ~len:n (fun k ~pos ~at ~n ->
            Bytes.blit data at (writable_page f k) pos n);
        f.len <- max f.len (offset + n);
        Ok n)

(* Shrinking drops the pages wholly past the new end and zeroes the rest
   of the last one, so the bytes past [len] are zero again. Growing has
   nothing to clear. *)
let truncate t i ~len =
  if len < 0 then Error Errno.EINVAL
  else
    with_file t i (fun f ->
        if len < f.len then begin
          let keep = (len + page_size - 1) lsr page_bits in
          if keep < Array.length f.pages then f.pages <- Array.sub f.pages 0 keep;
          let pos = len land (page_size - 1) in
          if pos > 0 then begin
            let last = page f (keep - 1) in
            if last != absent then Bytes.fill last pos (page_size - pos) '\000'
          end
        end;
        f.len <- len;
        Ok ())

(* --- directories --------------------------------------------------- *)

let mkdir t ~cwd path ~mode =
  match lookup_parent t ~cwd path with
  | Error e -> Error e
  | Ok (parent, name) -> (
    match node t parent with
    | File _ -> Error Errno.ENOTDIR
    | Dir d ->
      if Hashtbl.mem d.entries name then Error Errno.EEXIST
      else begin
        let i = alloc t (Dir { entries = Hashtbl.create 8; dperm = mode }) in
        Hashtbl.replace d.entries name i;
        Ok ()
      end)

let remove_entry t ~cwd path ~want_dir =
  match lookup_parent t ~cwd path with
  | Error e -> Error e
  | Ok (parent, name) -> (
    match node t parent with
    | File _ -> Error Errno.ENOTDIR
    | Dir d -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error Errno.ENOENT
      | Some i -> (
        match (node t i, want_dir) with
        | File _, true -> Error Errno.ENOTDIR
        | Dir _, false -> Error Errno.EISDIR
        | Dir sub, true when Hashtbl.length sub.entries > 0 -> Error Errno.ENOTEMPTY
        | node_data, _ ->
          (* POSIX: unlink removes the directory entry; a regular file's
             inode lives on while open descriptors reference it. We keep
             file inodes (the sim never reclaims them) and drop only
             directory inodes, which cannot be held open here. *)
          Hashtbl.remove d.entries name;
          (match node_data with
          | Dir _ -> Hashtbl.remove t.nodes i
          | File _ -> ());
          Ok ())))

let unlink t ~cwd path = remove_entry t ~cwd path ~want_dir:false
let rmdir t ~cwd path = remove_entry t ~cwd path ~want_dir:true

let readdir t ~cwd path =
  match resolve t ~cwd path with
  | Error e -> Error e
  | Ok i -> (
    match node t i with
    | File _ -> Error Errno.ENOTDIR
    | Dir d ->
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) d.entries [] in
      Ok (List.sort compare names))

let rename t ~cwd ~src ~dst =
  match (lookup_parent t ~cwd src, lookup_parent t ~cwd dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (sp, sname), Ok (dp, dname) -> (
    match (node t sp, node t dp) with
    | Dir sd, Dir dd -> (
      match Hashtbl.find_opt sd.entries sname with
      | None -> Error Errno.ENOENT
      | Some i -> (
        match Hashtbl.find_opt dd.entries dname with
        | Some existing when is_dir t existing -> Error Errno.EISDIR
        | _ ->
          Hashtbl.remove sd.entries sname;
          Hashtbl.replace dd.entries dname i;
          Ok ()))
    | _ -> Error Errno.ENOTDIR)

let canonicalize t ~cwd path =
  match components ~cwd path with
  | Error e -> Error e
  | Ok comps -> (
    match walk t root comps with
    | Error e -> Error e
    | Ok i ->
      if is_dir t i then Ok ("/" ^ String.concat "/" comps) else Error Errno.ENOTDIR)

let inode_id (i : inode) : int = i

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_s s =
    w_i (String.length s);
    Buffer.add_string b s
  in
  w_i t.next;
  let nodes =
    Hashtbl.fold (fun i d acc -> (i, d) :: acc) t.nodes []
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  w_i (List.length nodes);
  List.iter
    (fun (i, d) ->
      w_i i;
      match d with
      | File f ->
        Buffer.add_uint8 b 0;
        w_i f.perm;
        w_i f.len;
        (* content digest, not content: file bytes can be large and a
           divergence check only needs inequality to show through *)
        let h = ref Bg_engine.Fnv.empty in
        iter_pieces ~off:0 ~len:f.len (fun k ~pos ~at:_ ~n ->
            h := Bg_engine.Fnv.add_subbytes !h (page f k) ~pos ~len:n);
        Buffer.add_int64_le b !h
      | Dir d ->
        Buffer.add_uint8 b 1;
        w_i d.dperm;
        let entries =
          Hashtbl.fold (fun n i acc -> (n, i) :: acc) d.entries [] |> List.sort compare
        in
        w_i (List.length entries);
        List.iter
          (fun (n, i) ->
            w_s n;
            w_i i)
          entries)
    nodes
