(** The per-chip torus DMA engine (paper §V.C).

    BG/P's DMA unit lives between the cores and the torus: software
    writes descriptors into injection memory FIFOs, the engine walks them
    and drives the network, arriving packets land in reception memory
    FIFOs, and byte-decrement completion counters tell software when the
    last byte of a transfer has moved. CNK's static memory map lets all
    of that state be mapped straight into user space; a Linux-class
    kernel has to mediate every touch with a syscall. This module models
    the unit itself — who pays to reach it is the kernels' business.

    Determinism: the engine only reacts to {!inject} calls and schedules
    through the shared simulator; it draws no randomness. Creating a
    group schedules nothing, so a machine that never uses the DMA path
    is cycle-identical to one without it. *)

type kind =
  | Eager      (** self-describing packet into the target's reception FIFO *)
  | Rdma_put   (** one-sided write into a target-registered buffer *)
  | Rdma_get   (** one-sided read: request packet out, data streamed back *)

type descriptor = private {
  kind : kind;
  dst : int;           (** target rank *)
  tag : int;           (** names the remote buffer (put/get) or dispatch tag (eager) *)
  payload : bytes;     (** data carried; empty for [Rdma_get] *)
  bytes : int;         (** payload size on the wire; for [Rdma_get], bytes to pull *)
  counter : int;       (** completion counter id on the injecting chip; -1 = none *)
  arm_bytes : int;     (** added to the counter at inject; defaults to [bytes] *)
  ctx : int;           (** opaque causal context riding the descriptor; 0 = none.
                           The engine never interprets it — it is copied into the
                           delivered packet and echoed by the counter-done hook. *)
}

val descriptor :
  ?payload:bytes ->
  ?counter:int ->
  ?arm_bytes:int ->
  ?ctx:int ->
  kind:kind ->
  dst:int ->
  tag:int ->
  bytes:int ->
  unit ->
  descriptor
(** [arm_bytes] exists for multi-descriptor transfers sharing one
    counter: arm the full total on the first descriptor and 0 on the
    rest, so the counter cannot transiently hit zero mid-transfer. *)

type packet = { pkt_src : int; pkt_tag : int; pkt_payload : bytes; pkt_ctx : int }
(** One reception-FIFO entry (an arrived eager packet). [pkt_ctx] is the
    injecting descriptor's causal context, carried verbatim. *)

type stats = {
  mutable injected : int;            (** descriptors accepted into the FIFO *)
  mutable delivered : int;           (** transfers landed on this chip *)
  mutable bytes_injected : int;
  mutable bytes_delivered : int;
  mutable inject_stalls : int;       (** injections refused: FIFO full *)
  mutable recv_backpressure : int;   (** deliveries retried: reception FIFO full *)
  mutable dropped : int;             (** transfers lost to a severed route *)
}

type t

val create_group :
  Bg_engine.Sim.t -> Torus.t -> ?injection_depth:int -> ?reception_depth:int -> unit -> t
  array
(** One engine per torus rank, mutually reachable. Pure allocation: no
    events are scheduled and no randomness drawn. *)

val rank : t -> int
val stats : t -> stats
val injection_occupancy : t -> int
val reception_occupancy : t -> int
val injection_depth : t -> int

val inject : t -> descriptor -> (unit, [ `Fifo_full ]) result
(** Append a descriptor to the injection FIFO. [Error `Fifo_full] is the
    stall-on-full backpressure signal — the caller spins and retries;
    the engine frees a slot every time it launches a descriptor. On
    [Ok], the descriptor's counter (if any) is armed with [arm_bytes]
    and the engine starts pumping if idle. *)

val drain_recv : t -> packet list
(** Pop every packet out of the reception FIFO, oldest first. *)

val set_counter : t -> id:int -> int -> unit
(** Arm a completion counter to an absolute value (mainly for tests;
    {!inject} arms automatically). Setting it to 0 completes it now.
    @raise Invalid_argument on a negative id or value. *)

val counter_value : t -> id:int -> int
(** Bytes still outstanding; 0 if done or never armed. *)

val counter_done_at : t -> id:int -> Bg_engine.Cycles.t option
(** Cycle at which the counter reached zero, if it has. *)

(** {1 Buffer hooks}

    The messaging layer registers how rDMA reads and writes touch its
    memory: [read_hook ~tag] serves an incoming get, [write_hook ~tag
    ~data] lands a put (or the data returned by this engine's own get).
    Defaults: reads return empty, writes vanish. *)

val set_read_hook : t -> (tag:int -> bytes) -> unit
val set_write_hook : t -> (tag:int -> data:bytes -> unit) -> unit

(** {1 Counter-unit feeds}

    Fired synchronously on inject/delivery with the payload size —
    wired by {!Machine} into the UPC and the metrics registry, like the
    torus packet hook. Defaults: no-ops. *)

val set_inject_hook : t -> (bytes:int -> unit) -> unit
val set_deliver_hook : t -> (bytes:int -> unit) -> unit

val set_counter_done_hook : t -> (id:int -> ctx:int -> unit) -> unit
(** Fired synchronously the moment a completion counter latches zero,
    with the context of the descriptor whose last byte landed. Wired by
    {!Machine} into the causal tracer. Default: no-op. *)

val desc_process_cycles : int
val get_turnaround_cycles : int
val recv_retry_cycles : int
val header_bytes : int

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Counters
    go out sorted by id, so the bytes are deterministic. *)
