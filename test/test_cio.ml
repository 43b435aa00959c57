(* Tests for Bg_cio: the in-memory filesystem's POSIX semantics, the
   function-ship wire protocol, ioproxy fd-table behaviour, and an
   end-to-end CIOD round trip over the collective network. *)

open Bg_engine
open Bg_kabi
open Bg_cio

let check_int = Alcotest.(check int)

let errno : Errno.t Alcotest.testable =
  Alcotest.testable Errno.pp Errno.equal

let ok = function Ok v -> v | Error e -> Alcotest.failf "errno %s" (Errno.to_string e)

(* read-write create+truncate, for tests that write then read back *)
let o_rwct = { Sysreq.o_rdwr with Sysreq.creat = true; trunc = true }

let expect_err expected = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.check errno "errno" expected e

(* ------------------------------------------------------------------ *)
(* Fs *)

let test_fs_create_write_read () =
  let fs = Fs.create () in
  let i = ok (Fs.open_file fs ~cwd:"/" "data.txt" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  check_int "written" 5 (ok (Fs.write fs i ~offset:0 (Bytes.of_string "hello")));
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (ok (Fs.read fs i ~offset:0 ~len:100)))

let test_fs_read_past_eof () =
  let fs = Fs.create () in
  let i = ok (Fs.open_file fs ~cwd:"/" "f" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  ignore (ok (Fs.write fs i ~offset:0 (Bytes.of_string "abc")));
  Alcotest.(check string) "eof" "" (Bytes.to_string (ok (Fs.read fs i ~offset:3 ~len:10)));
  Alcotest.(check string) "short" "c" (Bytes.to_string (ok (Fs.read fs i ~offset:2 ~len:10)))

let test_fs_sparse_write_zero_fills () =
  let fs = Fs.create () in
  let i = ok (Fs.open_file fs ~cwd:"/" "f" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  ignore (ok (Fs.write fs i ~offset:10 (Bytes.of_string "x")));
  check_int "size" 11 (Fs.size fs i);
  check_int "hole is zero" 0 (Bytes.get_uint8 (ok (Fs.read fs i ~offset:0 ~len:1)) 0)

let test_fs_enoent () =
  let fs = Fs.create () in
  expect_err Errno.ENOENT (Fs.resolve fs ~cwd:"/" "/missing")

let test_fs_mkdir_and_paths () =
  let fs = Fs.create () in
  ok (Fs.mkdir fs ~cwd:"/" "a" ~mode:0o755);
  ok (Fs.mkdir fs ~cwd:"/" "/a/b" ~mode:0o755);
  let i = ok (Fs.open_file fs ~cwd:"/a/b" "c.txt" ~flags:Sysreq.o_create_trunc ~mode:0o600) in
  ignore (ok (Fs.write fs i ~offset:0 (Bytes.of_string "deep")));
  (* Same file through a convoluted path. *)
  let j = ok (Fs.resolve fs ~cwd:"/" "/a/./b/../b//c.txt") in
  Alcotest.(check string) "path normalization" "deep"
    (Bytes.to_string (ok (Fs.read fs j ~offset:0 ~len:4)))

let test_fs_dotdot_above_root () =
  let fs = Fs.create () in
  ok (Fs.mkdir fs ~cwd:"/" "a" ~mode:0o755);
  let i = ok (Fs.resolve fs ~cwd:"/" "/../../a") in
  Alcotest.(check bool) "resolved" true (Fs.is_dir fs i)

let test_fs_enotdir () =
  let fs = Fs.create () in
  let _ = ok (Fs.open_file fs ~cwd:"/" "f" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  expect_err Errno.ENOTDIR (Fs.resolve fs ~cwd:"/" "/f/child")

let test_fs_rmdir_semantics () =
  let fs = Fs.create () in
  ok (Fs.mkdir fs ~cwd:"/" "d" ~mode:0o755);
  let _ = ok (Fs.open_file fs ~cwd:"/d" "f" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  expect_err Errno.ENOTEMPTY (Fs.rmdir fs ~cwd:"/" "d");
  ok (Fs.unlink fs ~cwd:"/" "/d/f");
  ok (Fs.rmdir fs ~cwd:"/" "d");
  expect_err Errno.ENOENT (Fs.resolve fs ~cwd:"/" "/d")

let test_fs_unlink_dir_rejected () =
  let fs = Fs.create () in
  ok (Fs.mkdir fs ~cwd:"/" "d" ~mode:0o755);
  expect_err Errno.EISDIR (Fs.unlink fs ~cwd:"/" "d")

let test_fs_readdir_sorted () =
  let fs = Fs.create () in
  List.iter
    (fun n -> ignore (ok (Fs.open_file fs ~cwd:"/" n ~flags:Sysreq.o_create_trunc ~mode:0o644)))
    [ "zeta"; "alpha"; "mid" ];
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ]
    (ok (Fs.readdir fs ~cwd:"/" "/"))

let test_fs_rename_replaces () =
  let fs = Fs.create () in
  let a = ok (Fs.open_file fs ~cwd:"/" "a" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  ignore (ok (Fs.write fs a ~offset:0 (Bytes.of_string "AAA")));
  let b = ok (Fs.open_file fs ~cwd:"/" "b" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  ignore (ok (Fs.write fs b ~offset:0 (Bytes.of_string "BBB")));
  ok (Fs.rename fs ~cwd:"/" ~src:"a" ~dst:"b");
  expect_err Errno.ENOENT (Fs.resolve fs ~cwd:"/" "/a");
  let b' = ok (Fs.resolve fs ~cwd:"/" "/b") in
  Alcotest.(check string) "content moved" "AAA"
    (Bytes.to_string (ok (Fs.read fs b' ~offset:0 ~len:3)))

let test_fs_truncate () =
  let fs = Fs.create () in
  let i = ok (Fs.open_file fs ~cwd:"/" "f" ~flags:Sysreq.o_create_trunc ~mode:0o644) in
  ignore (ok (Fs.write fs i ~offset:0 (Bytes.of_string "0123456789")));
  ok (Fs.truncate fs i ~len:4);
  check_int "shrunk" 4 (Fs.size fs i);
  ok (Fs.truncate fs i ~len:8);
  check_int "grown" 8 (Fs.size fs i);
  let tail = ok (Fs.read fs i ~offset:4 ~len:4) in
  Alcotest.(check string) "zero filled" "\000\000\000\000" (Bytes.to_string tail)

let test_fs_open_excl () =
  let fs = Fs.create () in
  let flags = { Sysreq.o_create_trunc with Sysreq.excl = true } in
  let _ = ok (Fs.open_file fs ~cwd:"/" "f" ~flags ~mode:0o644) in
  expect_err Errno.EEXIST (Fs.open_file fs ~cwd:"/" "f" ~flags ~mode:0o644)

let test_fs_stat () =
  let fs = Fs.create () in
  let i = ok (Fs.open_file fs ~cwd:"/" "f" ~flags:Sysreq.o_create_trunc ~mode:0o640) in
  ignore (ok (Fs.write fs i ~offset:0 (Bytes.make 42 'x')));
  let st = Fs.stat fs i in
  check_int "size" 42 st.Sysreq.st_size;
  check_int "perm" 0o640 st.Sysreq.st_perm;
  Alcotest.(check bool) "regular" true (st.Sysreq.st_kind = Sysreq.Regular)

(* ------------------------------------------------------------------ *)
(* Proto *)

let hdr = { Proto.rank = 7; pid = 2; tid = 19 }

let decode_req_exn data =
  match Proto.decode_request data with
  | Ok v -> v
  | Error e -> Alcotest.fail ("decode_request: " ^ Proto.error_message e)

let decode_reply_exn data =
  match Proto.decode_reply data with
  | Ok v -> v
  | Error e -> Alcotest.fail ("decode_reply: " ^ Proto.error_message e)

let roundtrip_req req =
  let hdr', req' = decode_req_exn (Proto.encode_request hdr req) in
  Alcotest.(check bool) "header" true (hdr' = hdr);
  req'

let test_proto_open_roundtrip () =
  match roundtrip_req (Sysreq.Open { path = "/x/y"; flags = Sysreq.o_rdwr; mode = 0o600 }) with
  | Sysreq.Open { path; flags; mode } ->
    Alcotest.(check string) "path" "/x/y" path;
    Alcotest.(check bool) "flags" true (flags = Sysreq.o_rdwr);
    check_int "mode" 0o600 mode
  | _ -> Alcotest.fail "wrong constructor"

let test_proto_write_roundtrip () =
  let payload = Bytes.of_string "the payload\000with nul" in
  match roundtrip_req (Sysreq.Write { fd = 5; data = payload }) with
  | Sysreq.Write { fd; data } ->
    check_int "fd" 5 fd;
    Alcotest.(check bytes) "data" payload data
  | _ -> Alcotest.fail "wrong constructor"

let test_proto_rejects_non_io () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Proto.encode_request hdr Sysreq.Getpid);
       false
     with Invalid_argument _ -> true)

let test_proto_reply_roundtrips () =
  let cases =
    [
      Sysreq.R_unit;
      Sysreq.R_int 42;
      Sysreq.R_bytes (Bytes.of_string "abc");
      Sysreq.R_stat { Sysreq.st_size = 9; st_kind = Sysreq.Directory; st_perm = 0o755 };
      Sysreq.R_names [ "a"; "b"; "c" ];
      Sysreq.R_string "/cwd";
      Sysreq.R_err Errno.ENOENT;
    ]
  in
  List.iter
    (fun reply ->
      let hdr', reply' = decode_reply_exn (Proto.encode_reply hdr reply) in
      Alcotest.(check bool) "header" true (hdr' = hdr);
      Alcotest.(check bool) "reply" true (reply = reply'))
    cases

let gen_io_request =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (1 -- 30) in
  let byts = map Bytes.of_string (string_size (0 -- 200)) in
  oneof
    [
      map (fun p -> Sysreq.Stat p) str;
      map (fun p -> Sysreq.Unlink p) str;
      map (fun p -> Sysreq.Rmdir p) str;
      map (fun p -> Sysreq.Readdir p) str;
      map (fun p -> Sysreq.Chdir p) str;
      map (fun fd -> Sysreq.Close fd) (0 -- 1000);
      map (fun fd -> Sysreq.Dup fd) (0 -- 1000);
      map (fun fd -> Sysreq.Fsync fd) (0 -- 1000);
      map2 (fun fd len -> Sysreq.Read { fd; len }) (0 -- 1000) (0 -- 100000);
      map2 (fun fd data -> Sysreq.Write { fd; data }) (0 -- 1000) byts;
      map2
        (fun fd offset -> Sysreq.Lseek { fd; offset; whence = Sysreq.Seek_cur })
        (0 -- 1000) (0 -- 100000);
      map2 (fun src dst -> Sysreq.Rename { src; dst }) str str;
      map2 (fun path mode -> Sysreq.Mkdir { path; mode }) str (0 -- 0o777);
      return Sysreq.Getcwd;
    ]

let prop_proto_roundtrip =
  QCheck.Test.make ~name:"proto request encode/decode is the identity" ~count:500
    (QCheck.make gen_io_request)
    (fun req ->
      match Proto.decode_request (Proto.encode_request hdr req) with
      | Ok (_, req') -> req = req'
      | Error _ -> false)

(* The encoders write each message straight into one [bytes] of its wire
   size; [Proto_reference] is the [Buffer]-based encoder they replaced.
   Every request and reply kind, with empty and 64 KiB payloads, empty
   strings and negative ints, must give the same bytes. *)
let payloads = [ Bytes.empty; Bytes.of_string "x"; Bytes.init 65536 (fun i -> Char.chr (i land 0xff)) ]

let every_request =
  let flags = { Sysreq.o_rdwr with Sysreq.append = true; excl = true } in
  List.concat
    [
      List.concat_map
        (fun data ->
          [ Sysreq.Write { fd = 3; data }; Sysreq.Pwrite { fd = 4; data; offset = 1 lsl 40 } ])
        payloads;
      List.concat_map
        (fun path ->
          [
            Sysreq.Open { path; flags; mode = 0o644 };
            Sysreq.Stat path;
            Sysreq.Unlink path;
            Sysreq.Mkdir { path; mode = 0o755 };
            Sysreq.Rmdir path;
            Sysreq.Readdir path;
            Sysreq.Chdir path;
            Sysreq.Rename { src = path; dst = path ^ ".new" };
          ])
        [ ""; "/a/b"; String.make 300 'p' ];
      [
        Sysreq.Open { path = "o"; flags = Sysreq.o_create_trunc; mode = -1 };
        Sysreq.Close 3;
        Sysreq.Read { fd = 3; len = 0 };
        Sysreq.Read { fd = -1; len = 65536 };
        Sysreq.Pread { fd = 5; len = 512; offset = max_int };
        Sysreq.Lseek { fd = 3; offset = -8; whence = Sysreq.Seek_set };
        Sysreq.Lseek { fd = 3; offset = 8; whence = Sysreq.Seek_cur };
        Sysreq.Lseek { fd = 3; offset = 0; whence = Sysreq.Seek_end };
        Sysreq.Fstat 3;
        Sysreq.Ftruncate { fd = 3; length = min_int };
        Sysreq.Getcwd;
        Sysreq.Dup 7;
        Sysreq.Fsync 3;
      ];
    ]

let every_reply =
  List.map (fun d -> Sysreq.R_bytes d) payloads
  @ [
      Sysreq.R_unit;
      Sysreq.R_int 0;
      Sysreq.R_int (-42);
      Sysreq.R_stat { Sysreq.st_size = 1 lsl 33; st_kind = Sysreq.Regular; st_perm = 0o644 };
      Sysreq.R_stat { Sysreq.st_size = 0; st_kind = Sysreq.Directory; st_perm = 0o755 };
      Sysreq.R_names [];
      Sysreq.R_names [ ""; "a"; String.make 200 'n' ];
      Sysreq.R_string "";
      Sysreq.R_string "/cwd";
      Sysreq.R_err Errno.ENOENT;
      Sysreq.R_err Errno.ENAMETOOLONG;
    ]

let headers = [ hdr; { Proto.rank = 0; pid = 0; tid = 0 }; { Proto.rank = -1; pid = max_int; tid = min_int } ]

let test_proto_encoders_match_reference () =
  let check what expected actual =
    if not (Bytes.equal expected actual) then
      Alcotest.failf "%s: %d reference bytes, %d encoded, first difference at %d" what
        (Bytes.length expected) (Bytes.length actual)
        (let n = min (Bytes.length expected) (Bytes.length actual) in
         let rec go i = if i < n && Bytes.get expected i = Bytes.get actual i then go (i + 1) else i in
         go 0)
  in
  List.iter
    (fun h ->
      List.iter
        (fun req ->
          check (Sysreq.request_name req) (Proto_reference.encode_request h req)
            (Proto.encode_request h req))
        every_request;
      List.iter
        (fun reply ->
          check "reply" (Proto_reference.encode_reply h reply) (Proto.encode_reply h reply))
        every_reply)
    headers;
  (* all nineteen request tags are covered *)
  let tags =
    List.sort_uniq compare
      (List.map (fun r -> Bytes.get_uint8 (Proto.encode_request hdr r) 24) every_request)
  in
  Alcotest.(check (list int)) "request tags" (List.init 19 (fun i -> i + 1)) tags;
  (* a reply kind that never crosses the wire is refused by both *)
  let refuses f = try ignore (f ()); false with Invalid_argument _ -> true in
  let local = Sysreq.R_ranges [ (0, 4096) ] in
  Alcotest.(check bool) "encoder refuses local reply" true
    (refuses (fun () -> Proto.encode_reply hdr local));
  Alcotest.(check bool) "reference refuses local reply" true
    (refuses (fun () -> Proto_reference.encode_reply hdr local))

(* An encoder allocates the message and nothing else: a [bytes] of n
   bytes takes n / 8 + 1 words and a header. *)
let test_proto_encoders_allocate_only_the_message () =
  let check what encode =
    let n = Bytes.length (encode ()) and calls = 1_000 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (encode ()))
    done;
    let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
    let message = float_of_int ((n / 8) + 2) in
    if per_call > message then
      Alcotest.failf "%s: %.1f words per call for a %d-byte message (%.0f)" what per_call n message
  in
  let data = Bytes.make 512 'x' in
  let pwrite = Sysreq.Pwrite { fd = 3; data; offset = 4096 }
  and open_ = Sysreq.Open { path = "/out/rank7"; flags = o_rwct; mode = 0o644 }
  and int_reply = Sysreq.R_int 512
  and bytes_reply = Sysreq.R_bytes data in
  check "pwrite request" (fun () -> Proto.encode_request hdr pwrite);
  check "open request" (fun () -> Proto.encode_request hdr open_);
  check "int reply" (fun () -> Proto.encode_reply hdr int_reply);
  check "bytes reply" (fun () -> Proto.encode_reply hdr bytes_reply)

let prop_proto_matches_reference =
  QCheck.Test.make ~name:"proto: request bytes = Buffer-based reference encoder" ~count:300
    (QCheck.make gen_io_request)
    (fun req -> Bytes.equal (Proto_reference.encode_request hdr req) (Proto.encode_request hdr req))

(* A shrinking truncate must not leave the cut-off bytes behind for a
   later write past EOF to expose: the hole reads as zeros. *)
let test_fs_hole_after_shrink_reads_zeros () =
  let fs = Fs.create () in
  let i = ok (Fs.open_file fs ~cwd:"/" "h" ~flags:o_rwct ~mode:0o644) in
  ignore (ok (Fs.write fs i ~offset:0 (Bytes.make 100 'x')));
  ok (Fs.truncate fs i ~len:10);
  ignore (ok (Fs.write fs i ~offset:50 (Bytes.of_string "y")));
  Alcotest.(check string) "zeros in the hole"
    (String.make 10 'x' ^ String.make 40 '\000' ^ "y")
    (Bytes.to_string (ok (Fs.read fs i ~offset:0 ~len:100)))

(* Model test: the paged store against the flat one it replaced
   ([Fs_reference]). Writes straddle 4 KB page edges or leave holes far
   past EOF, truncates shrink and grow, opens may truncate; after every
   operation both filesystems must agree on its result, on every file's
   size, stat and contents, and on the capture bytes. *)

type fs_op =
  | Fs_open of { file : int; trunc : bool }
  | Fs_write of { file : int; offset : int; len : int; fill : int }
  | Fs_read of { file : int; offset : int; len : int }
  | Fs_truncate of { file : int; len : int }

let fs_model_files = [| "f0"; "f1" |]

let pp_fs_op = function
  | Fs_open { file; trunc } -> Printf.sprintf "open f%d%s" file (if trunc then " trunc" else "")
  | Fs_write { file; offset; len; fill } ->
    Printf.sprintf "write f%d @%d len %d fill %d" file offset len fill
  | Fs_read { file; offset; len } -> Printf.sprintf "read f%d @%d len %d" file offset len
  | Fs_truncate { file; len } -> Printf.sprintf "truncate f%d to %d" file len

let gen_fs_op =
  let open QCheck.Gen in
  let near_page_edge = map2 (fun k d -> max 0 ((k * 4096) + d)) (0 -- 12) (-3 -- 3) in
  let offset = frequency [ (3, 0 -- 9000); (3, near_page_edge); (2, 20_000 -- 48_000); (1, return (-1)) ] in
  let len = frequency [ (2, 0 -- 100); (2, 4090 -- 4100); (3, 0 -- 10_000) ] in
  let file = 0 -- (Array.length fs_model_files - 1) in
  frequency
    [
      (1, map2 (fun file trunc -> Fs_open { file; trunc }) file bool);
      ( 4,
        map4 (fun file offset len fill -> Fs_write { file; offset; len; fill }) file offset len
          (0 -- 255) );
      (3, map3 (fun file offset len -> Fs_read { file; offset; len }) file offset len);
      ( 2,
        map2
          (fun file len -> Fs_truncate { file; len })
          file
          (frequency [ (2, 0 -- 100); (2, near_page_edge); (2, 0 -- 50_000); (1, return (-1)) ])
      );
    ]

let prop_fs_matches_flat_reference =
  let module R = Fs_reference in
  let result_eq eq a b =
    match (a, b) with
    | Ok x, Ok y -> eq x y
    | Error e, Error e' -> Errno.equal e e'
    | _ -> false
  in
  let capture f fs =
    let b = Buffer.create 256 in
    f fs b;
    Buffer.contents b
  in
  QCheck.Test.make ~name:"fs: paged files match the flat reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_fs_op ops))
       QCheck.Gen.(list_size (1 -- 25) gen_fs_op))
    (fun ops ->
      let fs = Fs.create () and ref_fs = R.create () in
      let open_both file flags =
        let path = fs_model_files.(file) in
        match
          ( Fs.open_file fs ~cwd:"/" path ~flags ~mode:0o644,
            R.open_file ref_fs ~cwd:"/" path ~flags ~mode:0o644 )
        with
        | Ok i, Ok i' when Fs.inode_id i = i' -> (i, i')
        | _ -> QCheck.Test.fail_reportf "open %s disagrees" path
      in
      let inodes =
        Array.init (Array.length fs_model_files) (fun file ->
            open_both file { Sysreq.o_rdwr with Sysreq.creat = true })
      in
      let agree () =
        Array.iter
          (fun (i, i') ->
            let size = Fs.size fs i in
            if size <> R.size ref_fs i' then QCheck.Test.fail_report "size";
            if Fs.stat fs i <> R.stat ref_fs i' then QCheck.Test.fail_report "stat";
            if
              not
                (result_eq Bytes.equal
                   (Fs.read fs i ~offset:0 ~len:(size + 5000))
                   (R.read ref_fs i' ~offset:0 ~len:(size + 5000)))
            then QCheck.Test.fail_report "contents")
          inodes;
        if capture Fs.capture fs <> capture R.capture ref_fs then
          QCheck.Test.fail_report "capture bytes"
      in
      List.iter
        (fun op ->
          let same =
            match op with
            | Fs_open { file; trunc } ->
              inodes.(file) <-
                open_both file { Sysreq.o_rdwr with Sysreq.creat = true; trunc };
              true
            | Fs_write { file; offset; len; fill } ->
              let data = Bytes.init len (fun k -> Char.chr ((fill + (k * 7)) land 0xff)) in
              let i, i' = inodes.(file) in
              result_eq Int.equal (Fs.write fs i ~offset data) (R.write ref_fs i' ~offset data)
            | Fs_read { file; offset; len } ->
              let i, i' = inodes.(file) in
              result_eq Bytes.equal (Fs.read fs i ~offset ~len) (R.read ref_fs i' ~offset ~len)
            | Fs_truncate { file; len } ->
              let i, i' = inodes.(file) in
              result_eq ( = ) (Fs.truncate fs i ~len) (R.truncate ref_fs i' ~len)
          in
          if not same then QCheck.Test.fail_reportf "%s: results differ" (pp_fs_op op);
          agree ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Ioproxy *)

let test_ioproxy_fd_lifecycle () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  let fd =
    Sysreq.expect_int
      (Ioproxy.handle p (Sysreq.Open { path = "f"; flags = o_rwct; mode = 0o644 }))
  in
  check_int "first fd is 3" 3 fd;
  check_int "written" 3
    (Sysreq.expect_int (Ioproxy.handle p (Sysreq.Write { fd; data = Bytes.of_string "abc" })));
  (* Sequential read uses the proxy-side offset, currently at EOF. *)
  ignore (Sysreq.expect_int (Ioproxy.handle p (Sysreq.Lseek { fd = 3; offset = 0; whence = Sysreq.Seek_set })));
  Alcotest.(check string) "read" "abc"
    (Bytes.to_string (Sysreq.expect_bytes (Ioproxy.handle p (Sysreq.Read { fd; len = 10 }))));
  Sysreq.expect_unit (Ioproxy.handle p (Sysreq.Close fd));
  (match Ioproxy.handle p (Sysreq.Read { fd; len = 1 }) with
  | Sysreq.R_err Errno.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF");
  check_int "no fds" 0 (Ioproxy.open_fds p)

let test_ioproxy_offset_mirrors_process_state () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  let fd =
    Sysreq.expect_int
      (Ioproxy.handle p (Sysreq.Open { path = "f"; flags = o_rwct; mode = 0o644 }))
  in
  ignore (Ioproxy.handle p (Sysreq.Write { fd; data = Bytes.of_string "0123456789" }));
  ignore (Ioproxy.handle p (Sysreq.Lseek { fd; offset = 2; whence = Sysreq.Seek_set }));
  Alcotest.(check string) "seek state lives in proxy" "234"
    (Bytes.to_string (Sysreq.expect_bytes (Ioproxy.handle p (Sysreq.Read { fd; len = 3 }))));
  Alcotest.(check string) "sequential continue" "567"
    (Bytes.to_string (Sysreq.expect_bytes (Ioproxy.handle p (Sysreq.Read { fd; len = 3 }))))

let test_ioproxy_cwd () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  ignore (Ioproxy.handle p (Sysreq.Mkdir { path = "/work"; mode = 0o755 }));
  Sysreq.expect_unit (Ioproxy.handle p (Sysreq.Chdir "/work"));
  Alcotest.(check string) "getcwd" "/work"
    (Sysreq.expect_string (Ioproxy.handle p Sysreq.Getcwd));
  let fd =
    Sysreq.expect_int
      (Ioproxy.handle p (Sysreq.Open { path = "rel"; flags = Sysreq.o_create_trunc; mode = 0o644 }))
  in
  ignore fd;
  (* File was created relative to the new cwd. *)
  Alcotest.(check bool) "relative resolve" true
    (match Fs.resolve fs ~cwd:"/" "/work/rel" with Ok _ -> true | Error _ -> false)

let test_ioproxy_dup_shares_nothing_after () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  let fd =
    Sysreq.expect_int
      (Ioproxy.handle p (Sysreq.Open { path = "f"; flags = o_rwct; mode = 0o644 }))
  in
  ignore (Ioproxy.handle p (Sysreq.Write { fd; data = Bytes.of_string "xyz" }));
  let fd2 = Sysreq.expect_int (Ioproxy.handle p (Sysreq.Dup fd)) in
  Alcotest.(check bool) "new fd" true (fd2 <> fd);
  (* Our dup copies the offset at dup time (simplification: independent
     offsets afterwards). *)
  ignore (Ioproxy.handle p (Sysreq.Lseek { fd = fd2; offset = 0; whence = Sysreq.Seek_set }));
  Alcotest.(check string) "read via dup" "xyz"
    (Bytes.to_string (Sysreq.expect_bytes (Ioproxy.handle p (Sysreq.Read { fd = fd2; len = 3 }))))

let test_ioproxy_non_io_enosys () =
  let fs = Fs.create () in
  let p = Ioproxy.create fs ~rank:0 ~pid:1 in
  match Ioproxy.handle p Sysreq.Getpid with
  | Sysreq.R_err Errno.ENOSYS -> ()
  | _ -> Alcotest.fail "expected ENOSYS"

(* A proxy hands out its last snapshot until a request changes it. After
   every request the snapshot must restore to a proxy that captures the
   same bytes as the live one, and a request that changed nothing must
   hand back the very same snapshot. *)
let test_ioproxy_snapshot_tracks_changes () =
  let fs = Fs.create () in
  ignore (ok (Fs.mkdir fs ~cwd:"/" "/d" ~mode:0o755));
  let p = Ioproxy.create fs ~rank:3 ~pid:7 in
  let capture p =
    let b = Buffer.create 64 in
    Ioproxy.capture p b;
    Buffer.contents b
  in
  let data = Bytes.of_string "0123456789" in
  let steps =
    [
      (true, Sysreq.Open { path = "f"; flags = o_rwct; mode = 0o644 });
      (true, Sysreq.Write { fd = 3; data });
      (false, Sysreq.Pwrite { fd = 3; data; offset = 40 });
      (false, Sysreq.Pread { fd = 3; len = 4; offset = 0 });
      (false, Sysreq.Fstat 3);
      (true, Sysreq.Lseek { fd = 3; offset = 2; whence = Sysreq.Seek_set });
      (true, Sysreq.Read { fd = 3; len = 3 });
      (true, Sysreq.Dup 3);
      (false, Sysreq.Ftruncate { fd = 4; length = 5 });
      (true, Sysreq.Chdir "/d");
      (false, Sysreq.Getcwd);
      (false, Sysreq.Stat "/f");
      (true, Sysreq.Close 3);
      (true, Sysreq.Close 3);
    ]
  in
  let before = ref (Ioproxy.snapshot p) in
  List.iteri
    (fun i (changes, req) ->
      ignore (Ioproxy.handle p req : Sysreq.reply);
      let snap = Ioproxy.snapshot p in
      let what = Printf.sprintf "step %d (%s)" i (Sysreq.request_name req) in
      Alcotest.(check string) (what ^ " restores") (capture p)
        (capture (Ioproxy.restore fs ~rank:3 ~pid:7 snap));
      if not changes then Alcotest.(check bool) (what ^ " reuses its snapshot") true (snap == !before);
      before := snap)
    steps;
  Ioproxy.close_all p;
  let closed = Ioproxy.snapshot p in
  Alcotest.(check bool) "close_all takes a new snapshot" false (closed == !before);
  let restored = Ioproxy.restore fs ~rank:3 ~pid:7 closed in
  check_int "closed proxy restores with no descriptor" 0 (Ioproxy.open_fds restored);
  Alcotest.(check string) "closed proxy keeps its cwd" "/d" (Ioproxy.cwd restored)

(* ------------------------------------------------------------------ *)
(* Ciod end-to-end *)

let test_ciod_round_trip () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let ciod = Ciod.create machine ~io_node:0 () in
  let delivered = ref None in
  Ciod.register_node ciod ~rank:0 ~deliver:(fun b -> delivered := Some b);
  Ciod.job_start ciod ~rank:0 ~pids:[ 1 ];
  check_int "proxy created" 1 (Ciod.proxy_count ciod);
  let req =
    Proto.encode_request { Proto.rank = 0; pid = 1; tid = 1 }
      (Sysreq.Open { path = "out"; flags = Sysreq.o_create_trunc; mode = 0o644 })
  in
  (* Model the uplink transit, then submission. *)
  Bg_hw.Collective_net.to_io_node machine.Machine.collective ~cn:0 ~payload:req
    ~on_arrival:(fun ~payload ~arrival_cycle:_ -> Ciod.submit ciod payload);
  ignore (Sim.run machine.Machine.sim);
  (match !delivered with
  | None -> Alcotest.fail "no reply delivered"
  | Some b ->
    let hdr', reply = decode_reply_exn b in
    check_int "tid routed back" 1 hdr'.Proto.tid;
    check_int "fd" 3 (Sysreq.expect_int reply));
  check_int "served" 1 (Ciod.requests_served ciod);
  Alcotest.(check bool) "reply took time" true (Sim.now machine.Machine.sim > 0)

let test_ciod_many_nodes_one_fs_client () =
  (* 16 compute nodes write through one CIOD: all writes land in one
     filesystem, and service is serialized over the 4 I/O-node workers. *)
  let machine = Machine.create ~dims:(4, 2, 2) () in
  let ciod = Ciod.create machine ~io_node:0 () in
  let replies = ref 0 in
  for rank = 0 to 15 do
    Ciod.register_node ciod ~rank ~deliver:(fun _ -> incr replies)
  done;
  for rank = 0 to 15 do
    let req =
      Proto.encode_request { Proto.rank; pid = 1; tid = 1 }
        (Sysreq.Open { path = Printf.sprintf "f%d" rank; flags = Sysreq.o_create_trunc; mode = 0o644 })
    in
    Bg_hw.Collective_net.to_io_node machine.Machine.collective ~cn:rank ~payload:req
      ~on_arrival:(fun ~payload ~arrival_cycle:_ -> Ciod.submit ciod payload)
  done;
  ignore (Sim.run machine.Machine.sim);
  check_int "all replied" 16 !replies;
  check_int "16 files on the single client" 16
    (List.length (ok (Fs.readdir (Ciod.fs ciod) ~cwd:"/" "/")))

let test_ciod_job_end_closes () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let ciod = Ciod.create machine ~io_node:0 () in
  Ciod.job_start ciod ~rank:0 ~pids:[ 1; 2 ];
  Ciod.job_start ciod ~rank:1 ~pids:[ 1 ];
  check_int "three proxies" 3 (Ciod.proxy_count ciod);
  Ciod.job_end ciod ~rank:0;
  check_int "rank 1 remains" 1 (Ciod.proxy_count ciod)

(* ------------------------------------------------------------------ *)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_proto_roundtrip; prop_proto_matches_reference; prop_fs_matches_flat_reference ]

let suite =
  [
    Alcotest.test_case "fs: create/write/read" `Quick test_fs_create_write_read;
    Alcotest.test_case "fs: read past eof" `Quick test_fs_read_past_eof;
    Alcotest.test_case "fs: sparse write zero fills" `Quick test_fs_sparse_write_zero_fills;
    Alcotest.test_case "fs: enoent" `Quick test_fs_enoent;
    Alcotest.test_case "fs: mkdir + path normalization" `Quick test_fs_mkdir_and_paths;
    Alcotest.test_case "fs: .. above root" `Quick test_fs_dotdot_above_root;
    Alcotest.test_case "fs: enotdir" `Quick test_fs_enotdir;
    Alcotest.test_case "fs: rmdir semantics" `Quick test_fs_rmdir_semantics;
    Alcotest.test_case "fs: unlink dir rejected" `Quick test_fs_unlink_dir_rejected;
    Alcotest.test_case "fs: readdir sorted" `Quick test_fs_readdir_sorted;
    Alcotest.test_case "fs: rename replaces" `Quick test_fs_rename_replaces;
    Alcotest.test_case "fs: truncate" `Quick test_fs_truncate;
    Alcotest.test_case "fs: hole after shrink reads zeros" `Quick
      test_fs_hole_after_shrink_reads_zeros;
    Alcotest.test_case "fs: O_EXCL" `Quick test_fs_open_excl;
    Alcotest.test_case "fs: stat" `Quick test_fs_stat;
    Alcotest.test_case "proto: open roundtrip" `Quick test_proto_open_roundtrip;
    Alcotest.test_case "proto: write roundtrip" `Quick test_proto_write_roundtrip;
    Alcotest.test_case "proto: rejects non-io" `Quick test_proto_rejects_non_io;
    Alcotest.test_case "proto: reply roundtrips" `Quick test_proto_reply_roundtrips;
    Alcotest.test_case "proto: encoders = reference" `Quick test_proto_encoders_match_reference;
    Alcotest.test_case "proto: encoders allocate only the message" `Quick
      test_proto_encoders_allocate_only_the_message;
    Alcotest.test_case "ioproxy: fd lifecycle" `Quick test_ioproxy_fd_lifecycle;
    Alcotest.test_case "ioproxy: offsets mirror process" `Quick
      test_ioproxy_offset_mirrors_process_state;
    Alcotest.test_case "ioproxy: cwd" `Quick test_ioproxy_cwd;
    Alcotest.test_case "ioproxy: dup" `Quick test_ioproxy_dup_shares_nothing_after;
    Alcotest.test_case "ioproxy: non-io ENOSYS" `Quick test_ioproxy_non_io_enosys;
    Alcotest.test_case "ioproxy: snapshot tracks every change" `Quick
      test_ioproxy_snapshot_tracks_changes;
    Alcotest.test_case "ciod: round trip" `Quick test_ciod_round_trip;
    Alcotest.test_case "ciod: aggregation to one client" `Quick
      test_ciod_many_nodes_one_fs_client;
    Alcotest.test_case "ciod: job end closes" `Quick test_ciod_job_end_closes;
  ]
  @ qcheck
