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

(** A table interning [(cat, name)] pairs to dense ids from 0, one hash
    lookup per call. *)
module Names : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Forget every pair. *)

  val intern : t -> cat:string -> name:string -> int
  (** The pair's id, added on first use. *)

  val find : t -> cat:string -> name:string -> int
  (** The pair's id, or [-1]; adds nothing. *)

  val cat : t -> int -> string
  val name : t -> int -> string

  val count : t -> int
  (** Pairs held. *)
end

(** Declared labels: a process-wide registry mapping a [(cat, name)] pair
    to a dense id, whose fold is that of the bytes of [cat ^ name].

    A label folds in constant time: for a fixed string [s] of length [L],
    FNV-1a satisfies [f_s(h) = h * prime^L + C_s(h land 0xff)] (mod
    2{^64}), so the label keeps [prime^L] and the 256 entries of [C_s] in
    a 2 KB table, built the first time the label is folded. Only
    declared pairs enter the registry. A name built at run time (a
    per-job span name, a DMA counter's node) stays in the {!Names} table
    of the collector that met it, as a negative {e label code}, folds
    byte by byte and never gets a table. *)
module Label : sig
  type t = private int

  val declare : cat:string -> name:string -> t
  (** The label of [(cat, name)]. Declaring a pair again returns the same
      label. *)

  val find : cat:string -> name:string -> t option
  (** The label of [(cat, name)] if it was declared; registers nothing. *)

  val of_int : int -> t
  (** @raise Invalid_argument unless the int is a declared label. *)

  val cat : t -> string
  val name : t -> string

  val text : t -> string
  (** [cat ^ name], without a copy when [cat] is empty. *)

  val has_table : t -> bool
  (** Whether the label's fold table has been built. *)

  val count : unit -> int
  (** Labels declared so far. *)

  val all : unit -> t list
  (** Every declared label, in declaration order. *)

  (** {2 Label codes}

      A record column stores a label as a code: a declared label's id
      ([>= 0]), or [lnot k] for pair [k] of the recording collector's own
      {!Names} table. *)

  val code : Names.t -> cat:string -> name:string -> int
  (** The pair's code: its declared label if it has one, otherwise its
      entry in [names], added on first use. One hash of the pair serves
      both lookups. *)

  val code_cat : Names.t -> int -> string
  val code_name : Names.t -> int -> string
end

val add_label : t -> Label.t -> t
(** [add_label h l] is [add_string (add_string h (Label.cat l)) (Label.name l)]. *)

(** A running digest updated in place. Every fold below folds exactly as
    the {!add_int}, {!add_string} and {!add_label} calls it names would,
    but allocates nothing. *)
module Acc : sig
  type digest := t
  type t

  val create : unit -> t
  (** At {!empty}. *)

  val reset : t -> unit
  val value : t -> digest
  val int : t -> int -> unit
  val string : t -> string -> unit
  val label : t -> Label.t -> unit

  val code : t -> Names.t -> int -> unit
  (** The label a code names, in [names] when it is negative
      ({!Label.code}). *)

  (** One record per call: the accumulator is read and written once per
      record, not once per field. *)

  val label_int4 : t -> Label.t -> int -> int -> int -> int -> unit
  (** The label, then four ints: a span (label, rank, core, start, finish). *)

  val int_label_int3 : t -> int -> Label.t -> int -> int -> int -> unit
  (** An int, the label, three ints: a causal node (id, label, rank, core,
      cycle). *)

  val int_label_int : t -> int -> Label.t -> int -> unit
  (** An int, the label, an int: a trace event (cycle, label, value). *)

  val int3 : t -> int -> int -> int -> unit
  (** Three ints: a causal edge (kind code, source, destination). *)
end

val to_hex : t -> string
(** Render as a 16-character lowercase hex string. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
