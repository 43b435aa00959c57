(** FNV-1a 64-bit hashing.

    Used throughout the simulator wherever a deterministic digest of
    architectural state is needed (logic scans, waveforms, memory content
    digests). FNV-1a is chosen for its simplicity and full determinism
    across runs and platforms; cryptographic strength is not required. *)

type t = int64
(** A running 64-bit digest. *)

val empty : t
(** The FNV-1a offset basis. *)

val add_int64 : t -> int64 -> t
(** [add_int64 h x] folds the eight bytes of [x] (little-endian) into [h]. *)

val add_int : t -> int -> t
(** [add_int h x] folds a native int into [h]. *)

val add_string : t -> string -> t
(** [add_string h s] folds every byte of [s] into [h]. *)

val add_bytes : t -> bytes -> t
(** [add_bytes h b] folds every byte of [b] into [h]. *)

val add_subbytes : t -> bytes -> pos:int -> len:int -> t
(** [add_subbytes h b ~pos ~len] folds bytes [pos .. pos+len-1] of [b],
    as [add_bytes h (Bytes.sub b pos len)] would, without the copy. *)

val hash_int : t -> int -> int
(** [Int64.to_int (add_int h x)], without boxing the digest. *)

(** A running digest updated in place. [int] and [string] fold exactly
    as {!add_int} and {!add_string} do, but allocate nothing. *)
module Acc : sig
  type digest := t
  type t

  val create : unit -> t
  (** At {!empty}. *)

  val reset : t -> unit
  val value : t -> digest
  val int : t -> int -> unit
  val string : t -> string -> unit
end

val to_hex : t -> string
(** Render as a 16-character lowercase hex string. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
