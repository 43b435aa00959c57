(** MPI point-to-point and collectives over DCMF (paper Table I, §V.D).

    Standard-mode send switches between the eager protocol (payload rides
    the first message, matched against posted/unexpected queues) and the
    rendezvous protocol (RTS → CTS → bulk put) at {!eager_threshold} —
    both implemented in user space on DCMF primitives, with MPI's envelope
    and matching costs on top. This is where Table I's "MPI Eager 2.4 us /
    MPI Rendezvous 5.6 us" come from: same wire, more software.

    The allreduce runs on the collective-network timing model: arrival of
    the last rank plus a tree traversal up and down. Its latency therefore
    inherits each rank's scheduling noise — exactly the §V.D experiment. *)

type t

val create : Dcmf.ctx -> t
val dcmf : t -> Dcmf.ctx
val rank : t -> int
val size : t -> int

val eager_threshold : int
(** Bytes; larger payloads use rendezvous (1200, as BG/P MPI). *)

val send : t -> dst:int -> tag:int -> bytes -> unit
(** Blocking standard send. *)

val send_rendezvous : t -> ?contiguous:bool -> dst:int -> tag:int -> int -> unit
(** Force the rendezvous path for a payload of the given size (no data
    bytes carried). [contiguous] (default true) selects the DMA path of
    {!Dcmf.put_large}. Completion = remote delivery complete. *)

val recv : t -> src:int -> tag:int -> bytes
(** Blocking matched receive (eager payloads only).
    @raise Invalid_argument naming both ranks when the message matched by
    the envelope's encoded tag came from another rank. *)

(** {1 Non-blocking point-to-point}

    Handles follow MPI's request model: start the operation, keep
    computing, then {!wait}. A receive completes when a matching eager
    message has arrived and been matched. *)

type request

val isend : t -> dst:int -> tag:int -> bytes -> request
val irecv : t -> src:int -> tag:int -> request
val test : t -> request -> bool
(** Non-blocking completion probe (progresses receives). Raises as
    {!recv} does on a message from the wrong rank. *)

val wait : t -> request -> bytes
(** Blocks until complete; returns the payload ([Bytes.empty] for sends). *)

val waitall : t -> request list -> bytes list

val sendrecv :
  t -> dst:int -> send_tag:int -> bytes -> src:int -> recv_tag:int -> bytes
(** The deadlock-free exchange primitive ring codes rely on. *)

val barrier : t -> unit
(** Barrier over the global-interrupt network. *)

(** Tree-network collectives shared by all ranks of a fabric. *)
module Coll : sig
  type coll

  val create : Dcmf.fabric -> participants:int -> coll

  val allreduce_sum : coll -> t -> float -> float
  (** Double-sum allreduce (the mpiBench_Allreduce operation): blocks
      until every participant contributes, then completes one tree
      round-trip after the last arrival. *)

  val last_latency_cycles : coll -> int
  (** Wall cycles from first arrival to completion of the most recent
      round — the per-iteration latency mpiBench reports. *)

  type route = Tree | Torus
  (** Where a large allreduce runs. The collective network's ALU combines
      integers at wire speed but needs two passes for doubles; the torus
      runs a reduce-scatter + allgather across all six links. Small
      reductions love the tree's latency; big ones love the torus's
      aggregate bandwidth — the crossover is a classic BG/P result. *)

  val allreduce_vector : coll -> t -> route -> elements:int -> float -> float
  (** Allreduce of a double vector of [elements] (timing is vector-sized;
      the returned value is the sum of each rank's scalar contribution,
      as {!allreduce_sum}). Blocks until completion. *)

  val estimate_vector_cycles : coll -> route -> elements:int -> int
  (** The closed-form time model behind {!allreduce_vector}. *)

  val bcast : coll -> t -> root:int -> bytes -> bytes
  (** Small broadcast over the collective network's hardware multicast:
      every rank (including the root) receives the root's payload one tree
      traversal after the last participant arrives. *)

  val reduce_sum : coll -> t -> root:int -> float -> float option
  (** Sum reduction to [root]: the root gets [Some sum], others [None],
      one up-tree traversal after the last arrival. *)

  val alltoall_cycles : coll -> bytes_per_pair:int -> int
  (** Closed-form cost of a personalized all-to-all (the FFT transpose):
      n(n-1) pairwise messages crossing the torus, limited by bisection
      bandwidth — the communication pattern of DNS3D-class codes. *)

  val alltoall : coll -> t -> bytes_per_pair:int -> int -> int list
  (** Personalized exchange of one integer per peer: rank r contributes
      [v] and receives [n] values ordered by source rank (each rank's
      contribution is what every peer receives from it). Timing follows
      {!alltoall_cycles}. *)
end
