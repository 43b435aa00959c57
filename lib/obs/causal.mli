(** Causal tracing: a deterministic cross-layer event graph.

    Spans ({!Obs}) say {e what} ran where; this module says {e why}: it
    records point events (nodes) minted by the kernels, the messaging
    layer, the I/O daemon and the scheduler, plus typed edges between
    them — a send to its receive, a DMA injection to its counter hitting
    zero, a function-shipped request to the reply that answered it, a
    parent step to the child it caused. Context travels through the real
    carriers (DMA descriptors, CIO frames, closures), so a retransmitted
    frame carries the {e same} context as the original and at-most-once
    execution shows exactly one [Request_reply] edge.

    Like the rest of [Bg_obs], the collector is {b passive}: it never
    schedules simulator events, never draws randomness, and never writes
    the architectural trace, so for a fixed seed the [Sim] digest is
    bit-identical whether causal collection is on or off. Node ids are
    FNV-derived from a seed and a mint counter — no wall clock — so two
    same-seed runs build byte-identical graphs ({!digest}).

    The graph is {b bounded}: past [max_nodes] minted nodes, {!mint}
    returns {!none} and counts the drop ({!dropped}) — no silent caps. *)

type t

type ctx = int
(** A causal context: the id of a node in the graph. [0] means "none"
    and is what carriers ship when collection is off. *)

val none : ctx

type kind =
  | Send_recv        (** a message send to its delivery on the peer *)
  | Inject_complete  (** a DMA descriptor injection to its counter reaching zero *)
  | Request_reply    (** a function-shipped request to the CIOD service that answered it *)
  | Parent_child     (** program order, job lifecycle, IPIs: the step that caused the next *)

val kind_name : kind -> string

type node = {
  id : ctx;
  cat : string;
  name : string;
  rank : int;   (** {!Obs.node_scope} for control-system events *)
  core : int;
  at : Bg_engine.Cycles.t;
}

type edge = { kind : kind; src : ctx; dst : ctx }

val create : ?seed:int -> ?max_nodes:int -> ?enabled:bool -> unit -> t
(** [seed] (default 1) feeds the FNV id stream; [max_nodes] (default
    262144) bounds the graph; [enabled] defaults to [false] — every call
    below is then a cheap no-op. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val reset : t -> unit

val mint :
  t -> ?chain:bool -> cat:string -> name:string -> rank:int -> core:int ->
  now:Bg_engine.Cycles.t -> unit -> ctx
(** New node; returns {!none} when disabled or full. [chain] (default
    [true]) adds a [Parent_child] edge from the previous node minted on
    the same (rank, core) — program order for free. [(cat, name)] is
    looked up as an {!Obs.label}; a pair nobody declared stays in this
    graph's own name table ({!local_names}), as {!Obs.span_begin}
    keeps it, until {!reset}. *)

val mint_l :
  t -> chain:bool -> Obs.label -> rank:int -> core:int -> now:Bg_engine.Cycles.t -> ctx
(** {!mint} on a declared label, with every argument explicit. *)

val link : t -> kind -> src:ctx -> dst:ctx -> unit
(** Typed edge; a no-op if either end is {!none} or unknown. *)

val node_count : t -> int
val edge_count : t -> int

val dropped : t -> int
(** Mints refused because the graph hit [max_nodes]. *)

val local_names : t -> int
(** Undeclared [(cat, name)] pairs the graph holds for its nodes: at
    most one per node, so at most [max_nodes]. *)

val nodes : t -> node list
(** In mint order. *)

val edges : t -> edge list
(** In record order. *)

val find : t -> ctx -> node option

val last_matching : t -> cat:string -> name:string -> ctx option
(** The latest-minted node with that category and name. *)

val digest : t -> Bg_engine.Fnv.t
(** FNV fold over every node and edge in record order: two same-seed
    runs of the same program produce equal digests. *)

(** {1 Critical path}

    Walk edges backward from a completion node, at each step following
    the latest-arriving predecessor — the dependency that actually
    gated progress. The result is the chain of events that determined
    when the completion happened; everything else overlapped it. *)

val critical_path : t -> ctx -> node list
(** Root first, the given node last. Just the node itself if it has no
    predecessors (or is unknown). *)

type attribution = {
  total : int;  (** path length in cycles: last.at - first.at *)
  ledger : (Accounting.state * int) list;
      (** on-node path cycles split by the owning core's cycle-ledger
          proportions (largest-remainder rounding); all six states, in
          {!Accounting.all_states} order *)
  network : int;  (** cross-node and control-system segments *)
  per_rank : (int * int) list;  (** on-node path cycles per rank, sorted *)
  straggler : int;  (** rank owning the most on-node path cycles; -1 if none *)
  dominant : string;  (** largest bucket: a state name or ["network"] *)
}

val attribute_path : t -> Accounting.t -> node list -> attribution
(** Tile the path into segments between consecutive nodes. A segment
    whose endpoints share a rank is charged to that (rank, core)'s
    ledger states proportionally (falling back to the rank's summed
    ledger, then to [App]); segments that cross ranks — or touch the
    control system — are network time. By construction
    [network + sum ledger = total], exactly. *)

val pp_attribution : Format.formatter -> attribution -> unit

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, into [b]. Hashtable
    contents are sorted before writing, so the bytes are deterministic. *)
