(** Deterministic, splittable pseudo-random streams (SplitMix64).

    Every source of variability in the simulator — daemon wakeup jitter,
    manufacturing variation, temperature noise — draws from a named stream
    derived from the job seed. Two runs with the same seed therefore
    produce bit-identical event sequences, which is the property CNK's
    cycle reproducibility (paper §III) rests on. *)

type t
(** A mutable PRNG stream. *)

val create : int64 -> t
(** [create seed] makes a fresh stream. *)

val state : t -> int64
(** Current position of the stream (snapshot capture). *)

val seed : t -> int64
(** Seed the stream was created with. *)

val split : t -> string -> t
(** [split t label] derives an independent child stream from [t]'s seed and
    [label], without perturbing [t]'s own sequence. Deterministic: the same
    parent seed and label always give the same child. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0.
    @raise Invalid_argument naming the bound otherwise. *)

val fill_bytes : t -> Bytes.t -> unit
(** Fill every byte of the buffer, in order, with what successive
    [int t 256] draws would give, leaving [t] where those draws would. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal deviate. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val seed_of_string : string -> int64
(** Deterministically hash a string into a seed. *)
