(* Reference implementation for the model test in [test_cio.ml]: the
   in-memory filesystem as it was when each file lived in one flat [bytes]
   that doubled and copied as it grew. Kept verbatim apart from dropping
   the directory operations the model test does not drive and one
   behaviour fix in [write], marked below. *)

open Bg_kabi

type file = { mutable data : bytes; mutable len : int; mutable perm : int }
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
          f.data <- Bytes.empty;
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
        let i = alloc t (File { data = Bytes.empty; len = 0; perm = mode }) in
        Hashtbl.replace d.entries name i;
        Ok i))
  | Error e -> Error e

let with_file t i f =
  match node t i with File file -> f file | Dir _ -> Error Errno.EISDIR

let read t i ~offset ~len =
  if offset < 0 || len < 0 then Error Errno.EINVAL
  else
    with_file t i (fun f ->
        if offset >= f.len then Ok Bytes.empty
        else begin
          let n = min len (f.len - offset) in
          Ok (Bytes.sub f.data offset n)
        end)

let ensure_capacity f n =
  if Bytes.length f > n then f
  else begin
    let bigger = Bytes.make (max n (max 64 (2 * Bytes.length f))) '\000' in
    Bytes.blit f 0 bigger 0 (Bytes.length f);
    bigger
  end

let write t i ~offset data =
  if offset < 0 then Error Errno.EINVAL
  else
    with_file t i (fun f ->
        let n = Bytes.length data in
        let new_len = max f.len (offset + n) in
        f.data <- ensure_capacity f.data new_len;
        (* Behaviour fix: the flat store left the bytes a shrinking
           truncate cut off in the buffer, and a later write past EOF
           exposed them in the hole instead of zeros. *)
        if offset > f.len then Bytes.fill f.data f.len (offset - f.len) '\000';
        Bytes.blit data 0 f.data offset n;
        f.len <- new_len;
        Ok n)

let truncate t i ~len =
  if len < 0 then Error Errno.EINVAL
  else
    with_file t i (fun f ->
        if len <= f.len then f.len <- len
        else begin
          f.data <- ensure_capacity f.data len;
          (* bytes beyond old len are already zero in fresh buffers; clear
             explicitly in case of shrink-then-grow reuse *)
          Bytes.fill f.data f.len (len - f.len) '\000';
          f.len <- len
        end;
        Ok ())

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
        Buffer.add_int64_le b
          (Bg_engine.Fnv.add_bytes Bg_engine.Fnv.empty (Bytes.sub f.data 0 f.len))
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
