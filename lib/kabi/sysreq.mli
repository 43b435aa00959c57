(** The syscall ABI shared by CNK and the FWK baseline.

    This is the paper's "glibc boundary" (§IV): the set of calls NPTL,
    ld.so and malloc actually need (clone, futex, set_tid_address,
    sigaction, uname, brk, mmap/mprotect/munmap), plus the POSIX file I/O
    suite that CNK function-ships to the I/O node, plus CNK-specific
    queries (static memory map, virtual-to-physical) and persistent-memory
    open. Requests are plain data; replies are plain data — which is what
    lets CNK marshal them byte-for-byte over the collective network
    ({!Bg_cio.Proto}). *)

type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  trunc : bool;
  append : bool;
  excl : bool;
}

val o_rdonly : open_flags
val o_wronly : open_flags
val o_rdwr : open_flags
val o_create_trunc : open_flags
(** write + creat + trunc, the common "clobber" open. *)

type whence = Seek_set | Seek_cur | Seek_end

type file_kind = Regular | Directory

type stat = { st_size : int; st_kind : file_kind; st_perm : int }

type clone_flags = {
  vm : bool;  (** share address space — NPTL always sets this *)
  thread : bool;
  settls : bool;
  parent_settid : bool;
  child_cleartid : bool;
}

val nptl_clone_flags : clone_flags
(** The fixed flag set glibc's NPTL passes; CNK validates clone calls
    against exactly this set (paper §IV.B.1). *)

type region_kind = Text | Data | Heap_stack | Shared | Persist

type region = {
  kind : region_kind;
  vaddr : int;
  paddr : int;
  bytes : int;
  page : Bg_hw.Page_size.t;
  writable : bool;
}
(** One range of the static memory map (paper Fig 3). *)

type personality = {
  p_rank : int;
  p_coords : int * int * int;   (** torus coordinates of this node *)
  p_dims : int * int * int;     (** torus dimensions of the machine *)
  p_pset : int;                 (** which I/O node serves this node *)
  p_pset_size : int;            (** compute nodes per I/O node *)
  p_mem_bytes : int;
  p_clock_mhz : int;
}
(** The BG "personality": the per-node configuration block the control
    system writes at boot and applications read to self-configure their
    communication layout (DCMF does exactly this on real hardware). *)

type uname_info = {
  sysname : string;
  nodename : string;  (** unique per node instance, e.g. "bgp3-cn17" *)
  release : string;  (** CNK reports 2.6.19.2 so glibc enables NPTL *)
  machine : string;
}

type perf_op =
  | Perf_start   (** start the chip's UPC counting *)
  | Perf_stop
  | Perf_freeze  (** latch a coherent snapshot; counting continues *)
  | Perf_read
      (** read the latched snapshot (or live counters if never frozen) *)

type perf_reading = { pr_event : Bg_hw.Upc.event; pr_core : int; pr_count : int }
(** [pr_core] is {!Bg_hw.Upc.chip_scope} for chip-wide events. *)

type dma_poll_op =
  | Dma_counter of int  (** read a completion counter: remaining bytes *)
  | Dma_recv            (** drain the reception FIFO *)

type request =
  (* process / thread *)
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
  (* synchronization *)
  | Futex_wait of { addr : int; expected : int }
  | Futex_wake of { addr : int; count : int }
  (* memory *)
  | Brk of int option  (** [None] queries the current break *)
  | Mmap of { length : int; prot : Bg_hw.Tlb.perm; map_copy : bool;
              fd : int option; offset : int }
  | Munmap of { addr : int; length : int }
  | Mprotect of { addr : int; length : int; prot : Bg_hw.Tlb.perm }
  | Shm_open of { name : string; length : int }
      (** CNK persistent/shared named memory (paper §IV.D) *)
  | Query_map
  | Query_vtop of int  (** user-space virtual-to-physical (paper §V.C) *)
  | Query_dirty of { clear : bool }
      (** pages of the heap/stack range written since the last clearing
          query — the incremental-checkpoint primitive. Handled locally by
          the kernel, never function-shipped. *)
  | Query_perf of perf_op
      (** control/read the chip's UPC ({!Bg_hw.Upc}). Handled locally by
          both kernels, never function-shipped; replies with {!R_perf}
          on [Perf_read], [R_unit] otherwise. *)
  (* DMA — the kernel-mediated messaging path (paper Table I). CNK maps
     the DMA unit into user space so DCMF never issues these; a
     Linux-class kernel must trap, translate and pin on every injection
     and poll through the kernel to reach the reception FIFO. *)
  | Dma_inject of Bg_hw.Dma.descriptor
      (** append to the chip's injection FIFO; [R_unit], or
          [R_err EAGAIN] when the FIFO is full (stall-on-full) *)
  | Dma_poll of dma_poll_op
      (** [Dma_counter id] replies [R_int remaining]; [Dma_recv] replies
          {!R_dma_packets} with everything drained *)
  (* info *)
  | Uname
  | Get_personality
  | Gettimeofday
  (* file I/O — function-shipped by CNK *)
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
  | R_ranges of (int * int) list  (** [(addr, len)] ranges, ascending *)
  | R_perf of perf_reading list   (** non-zero counters, fixed order *)
  | R_dma_packets of Bg_hw.Dma.packet list  (** drained reception FIFO, oldest first *)
  | R_err of Errno.t

exception Syscall_error of Errno.t
(** Raised by the [expect_*] helpers on [R_err]. *)

val expect_unit : reply -> unit
val expect_int : reply -> int
val expect_bytes : reply -> bytes
val expect_stat : reply -> stat
val expect_names : reply -> string list
val expect_string : reply -> string
val expect_map : reply -> region list
val expect_uname : reply -> uname_info
val expect_personality : reply -> personality
val expect_ranges : reply -> (int * int) list
val expect_perf : reply -> perf_reading list
val expect_dma_packets : reply -> Bg_hw.Dma.packet list

val is_file_io : request -> bool
(** True for the requests CNK function-ships to the I/O node. *)

val request_name : request -> string
(** Short name for traces and protocol framing. *)

(** Per-kind strings for the instrumented syscall path, built once per
    request kind rather than once per request. *)

val request_entry_name : request -> string
(** [request_name r ^ ".entry"] *)

val request_exit_name : request -> string
(** [request_name r ^ ".exit"] *)

val request_service_name : request -> string
(** ["service." ^ request_name r] *)

val request_name_hash : request -> int
(** [Hashtbl.hash (request_name r)] *)

val pp_request : Format.formatter -> request -> unit
(** strace-style rendering: ["write(fd=3, 4096 bytes)"]. Payload contents
    are elided (length only); closures render as ["<fn>"]. *)

val pp_reply : Format.formatter -> reply -> unit
val pp_region : Format.formatter -> region -> unit
