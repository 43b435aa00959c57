type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  trunc : bool;
  append : bool;
  excl : bool;
}

let o_rdonly = { rd = true; wr = false; creat = false; trunc = false; append = false; excl = false }
let o_wronly = { rd = false; wr = true; creat = false; trunc = false; append = false; excl = false }
let o_rdwr = { rd = true; wr = true; creat = false; trunc = false; append = false; excl = false }
let o_create_trunc = { rd = false; wr = true; creat = true; trunc = true; append = false; excl = false }

type whence = Seek_set | Seek_cur | Seek_end

type file_kind = Regular | Directory

type stat = { st_size : int; st_kind : file_kind; st_perm : int }

type clone_flags = {
  vm : bool;
  thread : bool;
  settls : bool;
  parent_settid : bool;
  child_cleartid : bool;
}

let nptl_clone_flags =
  { vm = true; thread = true; settls = true; parent_settid = true; child_cleartid = true }

type region_kind = Text | Data | Heap_stack | Shared | Persist

type region = {
  kind : region_kind;
  vaddr : int;
  paddr : int;
  bytes : int;
  page : Bg_hw.Page_size.t;
  writable : bool;
}

type personality = {
  p_rank : int;
  p_coords : int * int * int;
  p_dims : int * int * int;
  p_pset : int;
  p_pset_size : int;
  p_mem_bytes : int;
  p_clock_mhz : int;
}

type uname_info = { sysname : string; nodename : string; release : string; machine : string }

type perf_op = Perf_start | Perf_stop | Perf_freeze | Perf_read

type perf_reading = { pr_event : Bg_hw.Upc.event; pr_core : int; pr_count : int }

type dma_poll_op =
  | Dma_counter of int  (** read a completion counter: remaining bytes *)
  | Dma_recv            (** drain the reception FIFO *)

type request =
  | Getpid
  | Gettid
  | Get_rank
  | Clone of { flags : clone_flags; stack_hint : int; tls : int;
               parent_tid_addr : int; child_tid_addr : int;
               entry : unit -> unit }
  | Set_tid_address of int
  | Exit_thread of int
  | Exit_group of int
  | Sigaction of { signo : int; handler : (int -> unit) option }
  | Tgkill of { tid : int; signo : int }
  | Sched_yield
  | Futex_wait of { addr : int; expected : int }
  | Futex_wake of { addr : int; count : int }
  | Brk of int option
  | Mmap of { length : int; prot : Bg_hw.Tlb.perm; map_copy : bool;
              fd : int option; offset : int }
  | Munmap of { addr : int; length : int }
  | Mprotect of { addr : int; length : int; prot : Bg_hw.Tlb.perm }
  | Shm_open of { name : string; length : int }
  | Query_map
  | Query_vtop of int
  | Query_dirty of { clear : bool }
  | Query_perf of perf_op
  | Dma_inject of Bg_hw.Dma.descriptor
  | Dma_poll of dma_poll_op
  | Uname
  | Get_personality
  | Gettimeofday
  | Open of { path : string; flags : open_flags; mode : int }
  | Close of int
  | Read of { fd : int; len : int }
  | Write of { fd : int; data : bytes }
  | Pread of { fd : int; len : int; offset : int }
  | Pwrite of { fd : int; data : bytes; offset : int }
  | Lseek of { fd : int; offset : int; whence : whence }
  | Fstat of int
  | Stat of string
  | Ftruncate of { fd : int; length : int }
  | Unlink of string
  | Mkdir of { path : string; mode : int }
  | Rmdir of string
  | Readdir of string
  | Chdir of string
  | Getcwd
  | Rename of { src : string; dst : string }
  | Dup of int
  | Fsync of int

type reply =
  | R_unit
  | R_int of int
  | R_bytes of bytes
  | R_stat of stat
  | R_names of string list
  | R_string of string
  | R_map of region list
  | R_uname of uname_info
  | R_personality of personality
  | R_ranges of (int * int) list
  | R_perf of perf_reading list
  | R_dma_packets of Bg_hw.Dma.packet list
  | R_err of Errno.t

exception Syscall_error of Errno.t

let err = function R_err e -> raise (Syscall_error e) | _ -> invalid_arg "Sysreq: reply shape"

let expect_unit = function R_unit -> () | r -> err r
let expect_int = function R_int i -> i | r -> err r
let expect_bytes = function R_bytes b -> b | r -> err r
let expect_stat = function R_stat s -> s | r -> err r
let expect_names = function R_names n -> n | r -> err r
let expect_string = function R_string s -> s | r -> err r
let expect_map = function R_map m -> m | r -> err r
let expect_uname = function R_uname u -> u | r -> err r
let expect_personality = function R_personality p -> p | r -> err r
let expect_ranges = function R_ranges r -> r | r -> err r
let expect_perf = function R_perf r -> r | r -> err r
let expect_dma_packets = function R_dma_packets p -> p | r -> err r

let is_file_io = function
  | Open _ | Close _ | Read _ | Write _ | Pread _ | Pwrite _ | Lseek _ | Fstat _
  | Stat _ | Ftruncate _ | Unlink _ | Mkdir _ | Rmdir _ | Readdir _ | Chdir _
  | Getcwd | Rename _ | Dup _ | Fsync _ ->
    true
  | Getpid | Gettid | Get_rank | Clone _ | Set_tid_address _ | Exit_thread _
  | Exit_group _ | Sigaction _ | Tgkill _ | Sched_yield | Futex_wait _
  | Futex_wake _ | Brk _ | Mmap _ | Munmap _ | Mprotect _ | Shm_open _
  | Query_map | Query_vtop _ | Query_dirty _ | Query_perf _ | Dma_inject _
  | Dma_poll _ | Uname | Get_personality | Gettimeofday ->
    false

(* A request's kind indexes every per-kind string, so the syscall path
   builds and hashes each name once per kind, not once per request. *)
let request_kind = function
  | Getpid -> 0
  | Gettid -> 1
  | Get_rank -> 2
  | Clone _ -> 3
  | Set_tid_address _ -> 4
  | Exit_thread _ -> 5
  | Exit_group _ -> 6
  | Sigaction _ -> 7
  | Tgkill _ -> 8
  | Sched_yield -> 9
  | Futex_wait _ -> 10
  | Futex_wake _ -> 11
  | Brk _ -> 12
  | Mmap _ -> 13
  | Munmap _ -> 14
  | Mprotect _ -> 15
  | Shm_open _ -> 16
  | Query_map -> 17
  | Query_vtop _ -> 18
  | Query_dirty _ -> 19
  | Query_perf _ -> 20
  | Dma_inject _ -> 21
  | Dma_poll _ -> 22
  | Uname -> 23
  | Get_personality -> 24
  | Gettimeofday -> 25
  | Open _ -> 26
  | Close _ -> 27
  | Read _ -> 28
  | Write _ -> 29
  | Pread _ -> 30
  | Pwrite _ -> 31
  | Lseek _ -> 32
  | Fstat _ -> 33
  | Stat _ -> 34
  | Ftruncate _ -> 35
  | Unlink _ -> 36
  | Mkdir _ -> 37
  | Rmdir _ -> 38
  | Readdir _ -> 39
  | Chdir _ -> 40
  | Getcwd -> 41
  | Rename _ -> 42
  | Dup _ -> 43
  | Fsync _ -> 44

let kind_names =
  [|
    "getpid"; "gettid"; "get_rank"; "clone"; "set_tid_address"; "exit_thread";
    "exit_group"; "sigaction"; "tgkill"; "sched_yield"; "futex_wait"; "futex_wake";
    "brk"; "mmap"; "munmap"; "mprotect"; "shm_open"; "query_map"; "query_vtop";
    "query_dirty"; "query_perf"; "dma_inject"; "dma_poll"; "uname"; "get_personality";
    "gettimeofday"; "open"; "close"; "read"; "write"; "pread"; "pwrite"; "lseek";
    "fstat"; "stat"; "ftruncate"; "unlink"; "mkdir"; "rmdir"; "readdir"; "chdir";
    "getcwd"; "rename"; "dup"; "fsync";
  |]

let request_name r = kind_names.(request_kind r)
let per_kind f = Array.map f kind_names
let entry_names = per_kind (fun n -> n ^ ".entry")
let exit_names = per_kind (fun n -> n ^ ".exit")
let service_names = per_kind (fun n -> "service." ^ n)
let name_hashes = per_kind Hashtbl.hash
let request_entry_name r = entry_names.(request_kind r)
let request_exit_name r = exit_names.(request_kind r)
let request_service_name r = service_names.(request_kind r)
let request_name_hash r = name_hashes.(request_kind r)

let pp_flags ppf (f : open_flags) =
  let bits =
    List.filter_map
      (fun (b, n) -> if b then Some n else None)
      [ (f.rd, "RD"); (f.wr, "WR"); (f.creat, "CREAT"); (f.trunc, "TRUNC");
        (f.append, "APPEND"); (f.excl, "EXCL") ]
  in
  Format.pp_print_string ppf (if bits = [] then "0" else String.concat "|" bits)

let whence_name = function Seek_set -> "SET" | Seek_cur -> "CUR" | Seek_end -> "END"

let pp_request ppf r =
  match r with
  | Getpid | Gettid | Get_rank | Uname | Get_personality | Gettimeofday | Query_map
  | Getcwd ->
    Format.fprintf ppf "%s()" (request_name r)
  | Clone { flags; _ } ->
    Format.fprintf ppf "clone(vm=%b thread=%b tls=%b, entry=<fn>)" flags.vm
      flags.thread flags.settls
  | Set_tid_address a -> Format.fprintf ppf "set_tid_address(0x%x)" a
  | Exit_thread c -> Format.fprintf ppf "exit_thread(%d)" c
  | Exit_group c -> Format.fprintf ppf "exit_group(%d)" c
  | Sigaction { signo; handler } ->
    Format.fprintf ppf "sigaction(sig=%d, handler=%s)" signo
      (match handler with Some _ -> "<fn>" | None -> "SIG_DFL")
  | Tgkill { tid; signo } -> Format.fprintf ppf "tgkill(tid=%d, sig=%d)" tid signo
  | Sched_yield -> Format.fprintf ppf "sched_yield()"
  | Futex_wait { addr; expected } ->
    Format.fprintf ppf "futex_wait(0x%x, expected=%d)" addr expected
  | Futex_wake { addr; count } -> Format.fprintf ppf "futex_wake(0x%x, count=%d)" addr count
  | Brk None -> Format.fprintf ppf "brk(NULL)"
  | Brk (Some a) -> Format.fprintf ppf "brk(0x%x)" a
  | Mmap { length; fd; offset; map_copy; _ } ->
    Format.fprintf ppf "mmap(%d bytes%s%s)" length
      (match fd with Some fd -> Printf.sprintf ", fd=%d@%d" fd offset | None -> ", ANON")
      (if map_copy then ", MAP_COPY" else "")
  | Munmap { addr; length } -> Format.fprintf ppf "munmap(0x%x, %d)" addr length
  | Mprotect { addr; length; prot } ->
    Format.fprintf ppf "mprotect(0x%x, %d, %s%s%s)" addr length
      (if prot.Bg_hw.Tlb.read then "r" else "-")
      (if prot.Bg_hw.Tlb.write then "w" else "-")
      (if prot.Bg_hw.Tlb.execute then "x" else "-")
  | Shm_open { name; length } -> Format.fprintf ppf "shm_open(%S, %d)" name length
  | Query_vtop a -> Format.fprintf ppf "query_vtop(0x%x)" a
  | Query_dirty { clear } -> Format.fprintf ppf "query_dirty(clear=%b)" clear
  | Query_perf op ->
    Format.fprintf ppf "query_perf(%s)"
      (match op with
      | Perf_start -> "start"
      | Perf_stop -> "stop"
      | Perf_freeze -> "freeze"
      | Perf_read -> "read")
  | Dma_inject d ->
    Format.fprintf ppf "dma_inject(%s dst=%d tag=%d %d bytes ctr=%d)"
      (match d.Bg_hw.Dma.kind with
      | Bg_hw.Dma.Eager -> "eager"
      | Bg_hw.Dma.Rdma_put -> "put"
      | Bg_hw.Dma.Rdma_get -> "get")
      d.Bg_hw.Dma.dst d.Bg_hw.Dma.tag d.Bg_hw.Dma.bytes d.Bg_hw.Dma.counter
  | Dma_poll (Dma_counter id) -> Format.fprintf ppf "dma_poll(counter=%d)" id
  | Dma_poll Dma_recv -> Format.fprintf ppf "dma_poll(recv)"
  | Open { path; flags; mode } ->
    Format.fprintf ppf "open(%S, %a, 0o%o)" path pp_flags flags mode
  | Close fd -> Format.fprintf ppf "close(%d)" fd
  | Read { fd; len } -> Format.fprintf ppf "read(fd=%d, %d bytes)" fd len
  | Write { fd; data } -> Format.fprintf ppf "write(fd=%d, %d bytes)" fd (Bytes.length data)
  | Pread { fd; len; offset } -> Format.fprintf ppf "pread(fd=%d, %d bytes@%d)" fd len offset
  | Pwrite { fd; data; offset } ->
    Format.fprintf ppf "pwrite(fd=%d, %d bytes@%d)" fd (Bytes.length data) offset
  | Lseek { fd; offset; whence } ->
    Format.fprintf ppf "lseek(fd=%d, %d, %s)" fd offset (whence_name whence)
  | Fstat fd -> Format.fprintf ppf "fstat(%d)" fd
  | Stat p -> Format.fprintf ppf "stat(%S)" p
  | Ftruncate { fd; length } -> Format.fprintf ppf "ftruncate(fd=%d, %d)" fd length
  | Unlink p -> Format.fprintf ppf "unlink(%S)" p
  | Mkdir { path; mode } -> Format.fprintf ppf "mkdir(%S, 0o%o)" path mode
  | Rmdir p -> Format.fprintf ppf "rmdir(%S)" p
  | Readdir p -> Format.fprintf ppf "readdir(%S)" p
  | Chdir p -> Format.fprintf ppf "chdir(%S)" p
  | Rename { src; dst } -> Format.fprintf ppf "rename(%S -> %S)" src dst
  | Dup fd -> Format.fprintf ppf "dup(%d)" fd
  | Fsync fd -> Format.fprintf ppf "fsync(%d)" fd

let pp_region ppf r =
  Format.fprintf ppf "%s va 0x%08x -> pa 0x%08x (%d bytes, %s page%s)"
    (match r.kind with
    | Text -> "text"
    | Data -> "data"
    | Heap_stack -> "heap/stack"
    | Shared -> "shared"
    | Persist -> "persist")
    r.vaddr r.paddr r.bytes
    (Bg_hw.Page_size.to_string r.page)
    (if r.writable then ", rw" else ", ro")

let pp_reply ppf = function
  | R_unit -> Format.pp_print_string ppf "OK"
  | R_int i -> Format.fprintf ppf "%d" i
  | R_bytes b -> Format.fprintf ppf "<%d bytes>" (Bytes.length b)
  | R_stat s ->
    Format.fprintf ppf "{size=%d, %s, 0o%o}" s.st_size
      (match s.st_kind with Regular -> "file" | Directory -> "dir")
      s.st_perm
  | R_names ns -> Format.fprintf ppf "[%s]" (String.concat "; " ns)
  | R_string s -> Format.fprintf ppf "%S" s
  | R_map regions -> Format.fprintf ppf "<%d regions>" (List.length regions)
  | R_uname u -> Format.fprintf ppf "%s %s %s" u.sysname u.release u.machine
  | R_personality p ->
    let x, y, z = p.p_coords in
    Format.fprintf ppf "personality{rank=%d (%d,%d,%d) pset=%d}" p.p_rank x y z p.p_pset
  | R_ranges ranges ->
    Format.fprintf ppf "<%d ranges, %d bytes>" (List.length ranges)
      (List.fold_left (fun acc (_, l) -> acc + l) 0 ranges)
  | R_perf readings -> Format.fprintf ppf "<%d perf readings>" (List.length readings)
  | R_dma_packets pkts -> Format.fprintf ppf "<%d dma packets>" (List.length pkts)
  | R_err e -> Format.fprintf ppf "-%s" (Errno.to_string e)
