(** Versioned, self-describing whole-machine snapshot format.

    A snapshot file is [magic | format version | CRC-32 of the body |
    body], where the body records the run identity (scenario id, knobs,
    seed), the event cursor (events fired, sim clock) and a list of
    named per-layer regions, each with its own codec version. Region
    payloads come from the per-layer [capture] functions threaded
    through the tree; this module owns only the container and the
    shared sparse-range codec.

    Decoding never raises: truncation, bit flips, bad magic and unknown
    versions all map to a typed {!decode_error}. *)

val crc32 : bytes -> off:int -> len:int -> int32
(** IEEE CRC-32 (reflected, poly 0xEDB88320) of [len] bytes at [off]. *)

(** Little-endian writer/reader used by every per-layer codec. The
    writer is a plain [Buffer.t], so layers below this library can
    produce compatible payloads with stdlib calls alone. *)
module Buf : sig
  type writer = Buffer.t

  val writer : unit -> writer
  val u8 : writer -> int -> unit
  val u32 : writer -> int -> unit
  val i64 : writer -> int64 -> unit
  val int : writer -> int -> unit
  val str : writer -> string -> unit
  val raw : writer -> bytes -> unit
  val bool : writer -> bool -> unit
  val contents : writer -> bytes

  type reader

  val reader : ?pos:int -> bytes -> reader
  val remaining : reader -> int

  exception Short
  (** Raised by the [r_*] reads on underrun. {!decode} catches it; code
      using the reader directly must do the same. *)

  val r_u8 : reader -> int
  val r_u32 : reader -> int
  val r_i64 : reader -> int64
  val r_int : reader -> int
  val r_str : reader -> string
  val r_raw : reader -> bytes
  val r_bool : reader -> bool
end

type region = { layer : string; layer_version : int; payload : bytes }

val region : string -> (Buf.writer -> unit) -> region
(** [region layer fill]: the version-1 region whose payload [fill]
    writes. *)

type file = {
  format_version : int;
  scenario : string;
  knobs : (string * string) list;
  seed : int64;
  events : int;  (** cursor: events fired when the capture was taken *)
  clock : int;   (** sim clock at the cursor *)
  regions : region list;
}

type decode_error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Bad_crc of { expected : int32; got : int32 }
  | Bad_region of string

val decode_error_to_string : decode_error -> string

val format_version : int

val encode : file -> bytes
val decode : bytes -> (file, decode_error) result

val find_region : file -> string -> region option

type mismatch = { m_layer : string; m_offset : int }

val diff : file -> file -> mismatch option
(** First differing region between two snapshots (first differing byte
    offset within it), or [None] when every region matches. *)

val equal : file -> file -> bool

val write_path : path:string -> file -> unit
val read_path : string -> (file, decode_error) result

(** The dirty-page delta format shared with [Resilience.Ckpt]:
    [count:u64le], per range [addr:u64le][len:u64le], then the raw range
    data concatenated in order. Kept bit-for-bit with the pre-existing
    checkpoint wire format. *)
module Sparse : sig
  val encode_header : (int * int) list -> bytes
  (** Header bytes for [(addr, len)] ranges, without the data. *)

  val encode : ranges:(int * int) list -> read:(addr:int -> len:int -> bytes) -> bytes

  val decode_header : bytes -> ((int * int) list * int, decode_error) result
  (** Ranges plus the offset where their data starts. Data shorter than
      the declared ranges is [Error Truncated], never a raise. *)

  val decode : bytes -> ((int * bytes) list, decode_error) result
end
