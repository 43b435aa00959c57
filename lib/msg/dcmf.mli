(** DCMF — the Deep Computing Messaging Framework layer (paper §V.C).

    DCMF runs entirely in user space. It can, because CNK (a) lets the
    application drive the torus DMA directly, (b) exposes the
    virtual-to-physical mapping, and (c) provides large physically
    contiguous buffers. Here that shows up as: these functions are called
    from inside program coroutines, charge user-space software costs via
    [Coro.consume], and talk straight to {!Bg_hw.Torus} with no syscall.

    A {!fabric} is the per-machine rendezvous point; each rank's program
    {!attach}es once and gets its context. Data payloads are real bytes:
    put/get/eager move them into the peer's registered buffers, so tests
    can assert integrity end to end.

    {b Messaging paths.} A fabric is created on one of three paths:

    - {!Abstract} (the default): the pre-DMA model — transfers go to
      {!Bg_hw.Torus} directly with lumped software costs. Kept so every
      existing caller is bit-identical to before.
    - {!Dma_user}: the CNK story. Descriptors are injected into the
      chip's {!Bg_hw.Dma} injection FIFO with a few user-mode stores;
      completion counters and the reception FIFO are polled as plain
      memory. No syscalls anywhere on the critical path.
    - {!Dma_kernel}: the FWK story. The same descriptors, but every
      injection is a [Dma_inject] syscall (trap + translate + pin) and
      every counter read or FIFO drain is a [Dma_poll] syscall —
      preemptible by the tick scheduler. This is the kernel-mediated
      column of the paper's Table I.

    Completion handling: operations return {!handle}s whose completion is
    stamped with the hardware arrival cycle plus the receive-side software
    cost (abstract path) or latched off the DMA byte-decrement counter
    (DMA paths); {!wait} spins (DCMF on CNK polls — there is nothing to
    yield to). *)

(** The per-rank software inbox of arrived eager packets, oldest first.
    Exposed for its model test. *)
module Inbox : sig
  type t

  val none : Bg_hw.Dma.packet
  (** What {!take} returns when nothing matches; compare with [==]. *)

  val create : unit -> t
  val length : t -> int

  val push : t -> Bg_hw.Dma.packet -> unit
  (** Append at the back. *)

  val take : t -> tag:int -> Bg_hw.Dma.packet
  (** Remove and return the oldest packet with [tag], keeping the others
      in order; {!none} when no packet has it. Allocates nothing. *)
end

type path =
  | Abstract    (** lumped-cost torus transfers, no descriptors *)
  | Dma_user    (** CNK: memory-mapped injection/polling, user cycles only *)
  | Dma_kernel  (** FWK: every injection/poll is a syscall *)

type fabric
type ctx
type handle

val make_fabric : ?path:path -> Machine.t -> fabric
(** [path] defaults to [Abstract], which preserves the exact behaviour
    (and simulation digests) of the pre-DMA messaging layer. *)

val machine : fabric -> Machine.t
val fabric_path : fabric -> path
val fabric_of : ctx -> fabric
val attach : fabric -> rank:int -> ctx
(** One context per rank; re-attaching returns the same context. On a DMA
    fabric this also wires the rank's engine read/write hooks so remote
    gets stream out of the registered buffers and landings route back. *)

val rank : ctx -> int
val path_of : ctx -> path
val node_count : ctx -> int

val register : ctx -> tag:int -> bytes:int -> unit
(** Expose a named buffer of the given size for remote put/get. *)

val buffer : ctx -> tag:int -> bytes
(** Read back a registered buffer's current contents. *)

val put : ctx -> dst:int -> tag:int -> data:bytes -> handle
(** One-sided put into the peer's registered buffer. The handle completes
    at remote data arrival (what the paper's one-way latency measures). *)

val put_with_ack : ctx -> dst:int -> tag:int -> data:bytes -> handle
(** Put whose completion waits for the hardware ack packet to return —
    the building block of ARMCI's blocking put. On the DMA paths the ack
    is a small get fenced behind the put in the same injection FIFO. *)

val get : ctx -> src:int -> tag:int -> handle
(** One-sided get of the peer's registered buffer; completes when the data
    lands locally (find it via {!fetched}). *)

val fetched : handle -> bytes
(** Data landed by a completed {!get}. *)

val send_eager : ctx -> dst:int -> tag:int -> data:bytes -> handle
(** Two-sided eager active message; completes (remotely) after the
    receive-side dispatch handler runs. On the DMA paths the payload is
    copied into the memory FIFO (per-byte sender cost) and again on
    drain (per-byte receiver cost) — which is why large messages go
    rendezvous. *)

val try_recv_eager : ctx -> tag:int -> (int * bytes) option
(** Dequeue an arrived eager message with this tag: (src, payload). On a
    DMA fabric this first drains the reception FIFO — directly in user
    mode, via a [Dma_poll] syscall in kernel mode. *)

val send_rendezvous : ctx -> dst:int -> tag:int -> data:bytes -> unit
(** Rendezvous send: RTS packet out, the receiver pulls the payload with
    an rDMA-get (zero-copy), FIN packet back. Blocks (spinning) until the
    FIN arrives, so the source buffer can be reused on return. Requires a
    concurrently running {!recv_rendezvous} on [dst]. *)

val recv_rendezvous : ctx -> src:int -> tag:int -> bytes
(** Receiver side of {!send_rendezvous}: waits for the matching RTS,
    pulls the data with a get, sends FIN, returns the payload. *)

val put_large : ctx -> dst:int -> tag:int -> bytes:int -> contiguous:bool -> handle
(** Bulk transfer for the Fig 8 bandwidth experiment. [contiguous] streams
    one DMA descriptor; otherwise the buffer is physically fragmented into
    4 KiB pieces, each needing its own descriptor + handshake round —
    the Linux-without-big-pages path. No payload bytes are carried. *)

val is_complete : handle -> bool
val completion_cycle : handle -> Bg_engine.Cycles.t
(** Raises [Invalid_argument] if not complete yet. *)

val wait : handle -> unit
(** Spin (adaptive-interval polling) inside the calling coroutine until
    the handle completes. On [Dma_kernel] each poll is a syscall. *)

val barrier_via_hw : ctx -> unit
(** Enter the global barrier network and spin until released. *)

val dma_stats : ctx -> Bg_hw.Dma.stats option
(** This rank's engine counters ([None] if the rank has no engine). *)

val injected_descriptors : ctx -> int
(** Descriptors this rank has injected so far (0 on an abstract fabric —
    handy for app-level reports). *)
