(** Torus-aware partition placement.

    The A8 congestion result says torus links are the scarce resource:
    a communication-heavy job spread across a long thin box, or placed
    over links already carrying traffic, pays for every extra hop. This
    placer turns a node count into a concrete (shape, base) choice:

    - {b Shape}: all axis-aligned factorizations of the node count that
      fit the machine, most compact first (minimum surface area — fewest
      boundary links, shortest internal routes).
    - {b Base}: among the free boxes for a shape, the one whose member
      links are least congested, scored from the torus's cumulative
      per-link busy cycles plus a penalty for transfers in flight now.

    Non-communication-heavy jobs skip the scoring (any free box is as
    good as another for pure compute) and take the canonical first fit. *)

val shapes_for : dims:int * int * int -> nodes:int -> (int * int * int) list
(** Every (a, b, c) with [a*b*c = nodes] fitting [dims], most compact
    first (ties: lexicographic). Empty when the count cannot fit. *)

val canonical_shape : dims:int * int * int -> nodes:int -> (int * int * int) option
(** The most compact factorization — what a job submits as its shape. *)

val congestion_score :
  Bg_hw.Torus.t ->
  Bg_control.Partition.t ->
  base:int * int * int ->
  shape:int * int * int ->
  int
(** Sum over the box's member ranks and all six link directions of
    cumulative busy cycles, plus [10_000] per transfer currently in
    flight — lower is quieter. *)

type placement = { shape : int * int * int; base : (int * int * int) option }

type table
(** {!shapes_for} for every node count from 0 to the machine's size,
    computed once: a strategy builds one when it is installed, so a
    dispatch pass does not enumerate and sort factorizations again. *)

val table : dims:int * int * int -> table

val place :
  fits:(int * int * int -> bool) ->
  table ->
  Bg_hw.Torus.t ->
  Bg_control.Partition.t ->
  nodes:int ->
  comm:bool ->
  (placement, string) result
(** Choose where to put a job of [nodes] nodes right now: the most
    compact shape in [table] (built for the torus's dims) that has a
    free box. If [fits] refuses that shape (strategies pass the
    scheduler's shape cap), the result is an [Error] before any base is
    scored. For [comm] jobs the base is the least-congested free one
    (deterministic tie-break: lowest base in rank order); for
    compute-only jobs it is [None], the allocator's first fit. [Error]
    when nothing fits at the moment (or ever, for impossible counts);
    with fewer free nodes than [nodes] that error comes before any box
    is scanned. *)
