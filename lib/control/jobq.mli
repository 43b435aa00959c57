(** Indexed pending-job queue.

    The scheduler's waiting line used to be a plain list, which made the
    hot control-plane paths quadratic once thousands of jobs queue up:
    every submit walked the list to append, every backfill pick and
    requeue rebuilt it. This structure keeps FIFO order in an intrusive
    doubly-linked list with a key index on the side, so append,
    push-front and removal by key are all O(1) while iteration order
    stays exactly the old list order.

    Keys are unique (the scheduler uses job ids); inserting a key that is
    already present raises [Invalid_argument]. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val mem : 'a t -> int -> bool

val append : 'a t -> key:int -> 'a -> unit
(** Enqueue at the tail (normal submission order). O(1). *)

val push_front : 'a t -> key:int -> 'a -> unit
(** Enqueue at the head (restart requeue preempts the line). O(1). *)

val remove : 'a t -> int -> 'a option
(** Unlink by key; [None] when absent. O(1). *)

val find : 'a t -> int -> 'a option
val peek : 'a t -> (int * 'a) option
(** Head of the line without removing it. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Head-to-tail. The callback must not mutate the queue. *)

val fold : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b

val fold_back : 'a t -> init:'b -> f:(int -> 'a -> 'b -> 'b) -> 'b
(** Tail-to-head: [fold_back q ~init:[] ~f:(fun _ v acc -> v :: acc)]
    lists the values head first in one pass. *)

val to_list : 'a t -> (int * 'a) list
(** Head-to-tail snapshot; safe to mutate the queue afterwards. *)

val keys : 'a t -> int list
