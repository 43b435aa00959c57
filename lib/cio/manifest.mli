(** Per-I/O-node job manifest: the control-system-resident record a CIOD
    restart rebuilds its state from.

    On the real machine the control system knows which processes a CIOD
    was proxying; here the manifest additionally holds each proxy's
    kernel-visible snapshot (updated atomically with every executed
    request) and the replay cache of last replies per (rank, pid, tid).
    The manifest deliberately survives {!Ciod.crash} — it models stable
    storage outside the daemon — which is what makes re-executed writes
    idempotent even across a crash between execution and reply delivery. *)

type t

val create : unit -> t

val add_proc : t -> rank:int -> pid:int -> unit
val procs : t -> (int * int) list
(** Sorted (rank, pid) pairs of every live process behind this I/O node. *)

val record_proxy : t -> rank:int -> pid:int -> Ioproxy.snapshot -> unit
val proxy_snapshot : t -> rank:int -> pid:int -> Ioproxy.snapshot option

val record_reply : t -> rank:int -> pid:int -> tid:int -> seq:int -> frame:bytes -> unit
(** Cache the framed reply for the latest executed request of this thread.
    Threads spin on one outstanding request, so a depth-1 cache per tid
    suffices. *)

val last_reply : t -> rank:int -> pid:int -> tid:int -> (int * bytes option) option
(** [(seq, framed_reply)] of the cached entry, if any. [framed_reply] is
    [None] once the CNK side has acked [seq]: the frame bytes are gone but
    the sequence number remains as a watermark (see {!retire_reply}). *)

val retire_reply : t -> rank:int -> pid:int -> tid:int -> seq:int -> unit
(** Ack from the CNK side: reclaim the cached frame bytes for [seq] but
    keep the entry's sequence number as an acked watermark. The entry must
    not be removed outright — the collective net can reorder the Ack ahead
    of a straggling retransmitted copy of the request, and without the
    watermark that copy would look brand new and be re-executed (a re-run
    write double-appends). A stale seq is a no-op. *)

val remove_rank : t -> rank:int -> unit
(** Forget every process, proxy snapshot, and cached reply of [rank]
    (job teardown). Entries are kept per rank, so this costs the same
    however many other ranks the I/O node serves; the rank's tables are
    emptied in place and reused by its next job. An empty entry adds no
    bytes to {!capture}. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, sorted; cached
    reply frames appear as length + digest. *)
