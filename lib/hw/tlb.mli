(** Per-core translation lookaside buffer.

    Two usage styles exist, matching the two kernels:
    - CNK installs a static set of entries at process start and never takes
      a miss (paper §IV.C);
    - the FWK installs 4 KiB entries on demand; capacity evictions (FIFO)
      model the translation-miss noise contributor of paper §IV.C.

    Translation is by explicit entries only; overlapping entries are
    rejected at install time. *)

type perm = { read : bool; write : bool; execute : bool }

val perm_rwx : perm
val perm_rw : perm
val perm_rx : perm
val perm_ro : perm

type entry = {
  vaddr : int;  (** virtual base, aligned to [size] *)
  paddr : int;  (** physical base, aligned to [size] *)
  size : Page_size.t;
  perm : perm;
}

type t

type access = Load | Store | Fetch

type result =
  | Hit of int  (** translated physical address *)
  | Miss        (** no entry covers the address *)
  | Fault of string  (** permission violation *)

val create : capacity:int -> t

val install : t -> entry -> (unit, string) Stdlib.result
(** Fails on misalignment or overlap with an existing entry. When the TLB
    is full, the oldest entry is evicted (FIFO) and the eviction counter is
    bumped — CNK never triggers this; the FWK does. *)

type static_map
(** A fixed list of entries validated once (alignment and pairwise
    overlap), to be loaded onto any number of cores — how CNK installs a
    process's static map on every core it owns. *)

val prepare : entry list -> static_map

val load : t -> static_map -> (unit, string) Stdlib.result
(** Replace [t]'s entries with the map's: the same result as {!flush}
    followed by {!install} of each entry in order, stopping at the first
    error — the same entries, refill count and error message. The refill
    hook is called once with the number of entries loaded (not at all
    for an empty map), and a warm load allocates nothing. A map
    that would not fit without evictions is an error instead, and [t] is
    left unchanged: a static map never evicts (CNK treats it as a fault). *)

val check : static_map -> capacity:int -> (unit, string) Stdlib.result
(** The error {!load} would return for this map on a TLB of [capacity]
    entries, without touching any TLB: lets a kernel refuse a map before
    it changes any state. *)

val translate : t -> access -> int -> result

val flush : t -> unit
(** Drop all entries (chip reset, process teardown). *)

val entries : t -> entry list
val entry_count : t -> int
val evictions : t -> int
(** Number of capacity evictions since creation — CNK asserts this is 0. *)

val misses : t -> int
(** Number of [Miss] results returned by {!translate}. *)

val set_miss_hook : t -> (unit -> unit) -> unit
(** Called on every [Miss] result; the UPC feed. Default: no-op. *)

val set_refill_hook : t -> (int -> unit) -> unit
(** Called with the number of entries each successful {!install} (1) or
    {!load} put in; the UPC feed. Default: no-op. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Hashtable
    contents are sorted before writing, so the bytes are deterministic. *)
