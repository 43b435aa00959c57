(** Sparse simulated physical memory.

    Backing storage is allocated in 64 KiB chunks on first write, so a
    simulated 2 GiB node costs only what the workload actually writes.
    Contents are real bytes: DMA transfers, function-shipped I/O and
    persistent-memory reuse all move genuine data, which lets tests assert
    end-to-end integrity rather than just timing.

    A write can also be deferred ({!write_deferred}): its bytes are
    produced, and its chunks allocated, only when some operation first
    reads, overwrites, fills or copies a byte of its range, or asks for
    {!digest} or {!touched_bytes}. Every result is the one the eager
    write would have given; a deferral nobody looks at costs nothing. *)

type t

val create : size:int -> t
(** [create ~size] makes a zero-filled memory of [size] bytes. *)

val size : t -> int

val read : t -> addr:int -> len:int -> bytes
(** Raises [Invalid_argument] if the range is out of bounds. *)

val write : t -> addr:int -> bytes -> unit

val read_byte : t -> addr:int -> int
val write_byte : t -> addr:int -> int -> unit

val read_int64 : t -> addr:int -> int64
(** Little-endian load; used by tests that store pointers in simulated
    memory (persistent-memory linked lists, paper §IV.D). *)

val write_int64 : t -> addr:int -> int64 -> unit

val copy : src:t -> src_addr:int -> dst:t -> dst_addr:int -> len:int -> unit
(** Inter-memory copy (DMA, function-ship buffers). *)

val fill : t -> addr:int -> len:int -> char -> unit

val write_deferred : t -> addr:int -> len:int -> (unit -> bytes) -> unit
(** [write_deferred t ~addr ~len draw] acts as [write t ~addr (draw ())],
    but calls [draw] only when an operation first touches a byte of
    [\[addr, addr+len)] (read, write, fill, copy from or into it) or asks
    for {!digest} or {!touched_bytes}; {!zero} drops it undrawn. A later
    deferral drops an earlier one it fully covers, undrawn, and settles one
    it only partly overlaps, so pending writes never overlap. [draw] must
    return exactly [len] bytes (else [Invalid_argument] when it runs) and
    should hold nothing the caller wants collected: it lives as long as
    the write stays pending. *)

val zero : t -> unit
(** Drop all contents back to zero (a cold reset without self-refresh),
    pending deferred writes included. *)

val digest : t -> Bg_engine.Fnv.t
(** Digest of all touched chunks; equal digests mean equal contents for
    chunks ever written. Zero-only untouched regions do not contribute. *)

val touched_bytes : t -> int
(** Number of bytes of backing store actually allocated. *)
