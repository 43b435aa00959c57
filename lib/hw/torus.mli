(** 3D torus interconnect with DMA-style transfers.

    Routing is dimension-ordered (X, then Y, then Z) with wraparound,
    taking the shorter direction around each ring. Timing is a wormhole
    model: injection overhead, per-hop head latency, one serialization term
    at link bandwidth — and each traversed link is reserved for the
    serialization time, so concurrent transfers over a shared link queue
    behind each other. This is the substrate whose user-space access CNK's
    static memory map makes safe (paper §V.C). *)

type t

val create : Bg_engine.Sim.t -> ?params:Params.t -> dims:int * int * int -> unit -> t

val node_count : t -> int
val dims : t -> int * int * int
val coord_of_rank : t -> int -> int * int * int
val rank_of_coord : t -> int * int * int -> int
val hops : t -> src:int -> dst:int -> int
(** Number of links a packet crosses; 0 when [src = dst]. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** A disabled torus models the unit being absent/broken during bringup;
    {!transfer} then raises {!Fault.Unavailable}. *)

(** {1 Per-link faults (§III: running with partial/broken hardware)}

    Directions: 0/1 = ±x, 2/3 = ±y, 4/5 = ±z. Breaking a link makes the
    router take the long way around that ring when the short path would
    cross it; if both directions of a needed ring are broken the transfer
    raises {!Fault.Unavailable}. {!set_link_broken} raises
    [Invalid_argument] for a rank outside the torus; the queries read such
    a link as idle and unbroken. *)

val set_link_broken : t -> rank:int -> dir:int -> bool -> unit
val link_broken : t -> rank:int -> dir:int -> bool
val broken_links : t -> (int * int) list

val set_link_down_hook : t -> (rank:int -> dir:int -> in_flight:int -> unit) -> unit
(** Called when a link transitions to broken, with the number of
    transfers still crossing it — the machine layer's RAS feed for
    "link severed under traffic". Default: no-op. *)

val link_in_flight : t -> rank:int -> dir:int -> int
(** Transfers whose route crosses this directed link and whose last byte
    has not yet arrived. *)

val link_busy_cycles : t -> rank:int -> dir:int -> int
(** Cumulative cycles this directed link has spent serializing payload. *)

val busy_links : t -> ((int * int) * int) list
(** Every link that ever carried traffic with its busy-cycle total,
    sorted by (rank, dir). *)

val total_busy_cycles : t -> int

val transfer :
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  ?on_arrival:(arrival_cycle:Bg_engine.Cycles.t -> unit) ->
  unit ->
  unit
(** Start a DMA transfer now. [on_arrival] fires when the last byte lands.
    Local transfers ([src = dst]) cost only injection+receive overhead.
    Raises [Invalid_argument] for a rank outside the torus. *)

val estimate_cycles : t -> src:int -> dst:int -> bytes:int -> int
(** Contention-free latency estimate for the same path. *)

val transfers_started : t -> int

val set_inject_hook : t -> (src:int -> unit) -> unit
(** Called once per {!transfer} with the injecting rank — the UPC's
    torus-packet feed. Default: no-op. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Per-link
    rows cover every link a transfer has crossed and go out in (rank, dir)
    order, so the bytes are deterministic. *)
