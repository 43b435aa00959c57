(** The Universal Performance Counter unit (one per chip).

    BG/P's UPC counts hardware events — cache misses, TLB activity, torus
    packets, barrier waits — into a bank of counters software can start,
    stop and freeze. This model mirrors that control interface: counting
    is off until {!start}, {!freeze} latches a coherent snapshot while
    the live counters keep running, and kernels expose the unit through
    the [Query_perf] syscall so applications on CNK and the FWK read the
    same counters the same way.

    Counting is pure integer arithmetic driven by hooks the hardware
    models fire ({!Tlb}, {!Cache}, {!Dram}, {!Torus}, {!Barrier_net});
    it never schedules events or draws randomness, so enabling the UPC
    cannot perturb a simulation. *)

type event =
  | L1_miss            (** L1 miss, proxied by an L2 bank access *)
  | Tlb_miss           (** translation missed the TLB *)
  | Tlb_refill         (** a TLB entry was (re)installed *)
  | Torus_packet       (** packet injected by this chip's DMA unit *)
  | Barrier_wait       (** this chip arrived at the global barrier *)
  | Dram_self_refresh  (** DRAM entered self-refresh *)
  | Dma_descriptor     (** descriptor accepted into this chip's injection FIFO *)

val all_events : event list
(** In fixed counter-bank order. *)

val event_index : event -> int
(** Position in {!all_events}. *)

val event_name : event -> string

val chip_scope : int
(** Pseudo-core index ([-1]) for events not attributable to one core
    (L2, torus, barrier, DRAM). *)

type reading = { event : event; core : int; count : int }

type t

val create : cores:int -> unit -> t
(** A stopped unit with all counters zero. *)

val start : t -> unit
val stop : t -> unit
val running : t -> bool

val reset : t -> unit
(** Zero every counter, drop any frozen snapshot, stop counting. *)

val record : t -> core:int -> event -> int -> unit
(** Add to a live counter; no-op unless {!running}. Chip-scope events
    pass {!chip_scope}. [core] is required, not optional: an optional
    argument is boxed on every call from a hardware hook. *)

val freeze : t -> unit
(** Latch the live counters into a stable snapshot (counting continues).
    A second freeze overwrites the first. *)

val read : t -> ?core:int -> event -> int
(** Read one live counter. *)

val snapshot : t -> reading list
(** Non-zero live counters in fixed (event, core) order. *)

val iter_nonzero : t -> (event -> core:int -> int -> unit) -> unit
(** [f event ~core count] for each reading {!snapshot} would return, in
    the same order, without building the list. *)

val frozen_snapshot : t -> reading list option
(** The latched counters, or [None] if {!freeze} was never called. *)

val digest : t -> Bg_engine.Fnv.t
(** FNV fold over live and frozen counters, for determinism checks. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Hashtable
    contents are sorted before writing, so the bytes are deterministic. *)
