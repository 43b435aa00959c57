(** Summary statistics for noise and performance measurements.

    Provides both a one-shot summary over a sample array and a Welford
    online accumulator for streams too long to store (e.g. the million
    allreduce iterations of paper §V.D). *)

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;      (** sample standard deviation (n-1 denominator) *)
  median : float;
  p99 : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val spread_percent : summary -> float
(** [(max - min) / min * 100], the paper's FWQ "variation" metric.
    An all-zero summary has no spread and yields [0.] (not NaN); a zero
    minimum with a nonzero maximum yields [infinity]. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1]; interpolates between order
    statistics. [xs] need not be sorted. *)

(** Streaming mean/variance/extrema accumulator. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_int : t -> int -> unit
  (** [add t (float_of_int n)], without boxing a float at the call. *)

  val n : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

(** Fixed-width histogram, for FWQ-style sample distributions. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit
  (** Samples outside [lo, hi) are clamped into the first/last bin. *)

  val add_int : t -> int -> unit
  (** [add t (float_of_int n)], without boxing a float at the call. *)

  val counts : t -> int array
  val bin_lo : t -> int -> float
  val total : t -> int

  val sum : t -> float
  (** Sum of all samples as added (before clamping into [lo, hi)). *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,1]: the smallest value [v] such
      that at least [p * total] samples fall in bins at or below the one
      containing [v], linearly interpolated inside that bin. Resolution
      is one bin width; clamped samples answer from the edge bins. An
      empty histogram yields [0.]. *)
end
