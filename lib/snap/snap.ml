(* Versioned, self-describing whole-machine snapshot format.

   A snapshot is a flat byte file: a fixed header (magic, format version,
   CRC-32 of the body), the run identity (scenario id, knob set, seed),
   the event cursor (events fired, sim clock), and a list of named
   per-layer regions, each carrying its own codec version. Region
   payloads are produced by the per-layer [capture] functions spread
   through the tree (engine, hw, kernels, cio, control, obs); this
   module only owns the container.

   Decoding never raises: every malformed input maps to a typed
   [decode_error], including any truncation point and any flipped bit
   (the CRC covers the whole body). *)

(* --- CRC-32 (IEEE, reflected, poly 0xEDB88320) ------------------------ *)

module Crc32 = struct
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref (Int32.of_int n) in
           for _ = 0 to 7 do
             c :=
               if Int32.logand !c 1l <> 0l then
                 Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
               else Int32.shift_right_logical !c 1
           done;
           !c))

  let compute b ~off ~len =
    let table = Lazy.force table in
    let c = ref 0xFFFFFFFFl in
    for i = off to off + len - 1 do
      let idx =
        Int32.to_int (Int32.logxor !c (Int32.of_int (Bytes.get_uint8 b i))) land 0xff
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
    done;
    Int32.logxor !c 0xFFFFFFFFl
end

let crc32 b ~off ~len = Crc32.compute b ~off ~len

(* --- little-endian writer / reader ------------------------------------ *)

module Buf = struct
  type writer = Buffer.t

  let writer () = Buffer.create 256
  let u8 b v = Buffer.add_uint8 b (v land 0xff)
  let i64 b v = Buffer.add_int64_le b v
  let int b v = Buffer.add_int64_le b (Int64.of_int v)
  let u32 b v = Buffer.add_int32_le b (Int32.of_int v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let raw b x =
    u32 b (Bytes.length x);
    Buffer.add_bytes b x

  let bool b v = u8 b (if v then 1 else 0)
  let contents b = Buffer.to_bytes b

  (* The reader raises [Short] internally; the decode entry points below
     catch it and return [Error Truncated] — it never escapes this
     module. *)
  exception Short

  type reader = { data : bytes; mutable pos : int }

  let reader ?(pos = 0) data = { data; pos }
  let remaining r = Bytes.length r.data - r.pos

  let need r n = if remaining r < n then raise Short

  let r_u8 r =
    need r 1;
    let v = Bytes.get_uint8 r.data r.pos in
    r.pos <- r.pos + 1;
    v

  let r_i64 r =
    need r 8;
    let v = Bytes.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    v

  let r_int r = Int64.to_int (r_i64 r)

  let r_u32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v

  let r_str r =
    let n = r_u32 r in
    need r n;
    let s = Bytes.sub_string r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let r_raw r =
    let n = r_u32 r in
    need r n;
    let s = Bytes.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let r_bool r = r_u8 r <> 0
end

(* --- the container ----------------------------------------------------- *)

type region = { layer : string; layer_version : int; payload : bytes }

let region layer fill =
  let b = Buffer.create 1024 in
  fill b;
  { layer; layer_version = 1; payload = Buffer.to_bytes b }

type file = {
  format_version : int;
  scenario : string;
  knobs : (string * string) list;
  seed : int64;
  events : int;  (* cursor: events fired when the capture was taken *)
  clock : int;   (* sim clock at the cursor *)
  regions : region list;
}

type decode_error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Bad_crc of { expected : int32; got : int32 }
  | Bad_region of string

let decode_error_to_string = function
  | Truncated -> "truncated snapshot"
  | Bad_magic -> "bad magic (not a snapshot file)"
  | Unsupported_version v -> Printf.sprintf "unsupported format version %d" v
  | Bad_crc { expected; got } ->
    Printf.sprintf "CRC mismatch (expected %08lx, got %08lx)" expected got
  | Bad_region what -> Printf.sprintf "bad region: %s" what

let magic = "BGSN"
let format_version = 1
let header_bytes = 12 (* magic(4) + version(4) + crc(4); crc covers the rest *)

let encode f =
  let body = Buf.writer () in
  Buf.str body f.scenario;
  Buf.u32 body (List.length f.knobs);
  List.iter
    (fun (k, v) ->
      Buf.str body k;
      Buf.str body v)
    f.knobs;
  Buf.i64 body f.seed;
  Buf.int body f.events;
  Buf.int body f.clock;
  Buf.u32 body (List.length f.regions);
  List.iter
    (fun r ->
      Buf.str body r.layer;
      Buf.u32 body r.layer_version;
      Buf.raw body r.payload)
    f.regions;
  let body = Buf.contents body in
  let out = Bytes.create (header_bytes + Bytes.length body) in
  Bytes.blit_string magic 0 out 0 4;
  Bytes.set_int32_le out 4 (Int32.of_int f.format_version);
  Bytes.set_int32_le out 8 (crc32 body ~off:0 ~len:(Bytes.length body));
  Bytes.blit body 0 out header_bytes (Bytes.length body);
  out

let decode b =
  if Bytes.length b < header_bytes then Error Truncated
  else if Bytes.sub_string b 0 4 <> magic then Error Bad_magic
  else begin
    let version = Int32.to_int (Bytes.get_int32_le b 4) in
    if version <> format_version then Error (Unsupported_version version)
    else begin
      let expected = Bytes.get_int32_le b 8 in
      let got = crc32 b ~off:header_bytes ~len:(Bytes.length b - header_bytes) in
      if expected <> got then Error (Bad_crc { expected; got })
      else begin
        let r = Buf.reader ~pos:header_bytes b in
        (* read n items strictly left to right (List.init's evaluation
           order is unspecified, which would scramble the reader) *)
        let read_list n f =
          let rec go acc i = if i >= n then List.rev acc else go (f () :: acc) (i + 1) in
          go [] 0
        in
        match
          let scenario = Buf.r_str r in
          let nk = Buf.r_u32 r in
          let knobs =
            read_list nk (fun () ->
                let k = Buf.r_str r in
                let v = Buf.r_str r in
                (k, v))
          in
          let seed = Buf.r_i64 r in
          let events = Buf.r_int r in
          let clock = Buf.r_int r in
          let nr = Buf.r_u32 r in
          let regions =
            read_list nr (fun () ->
                let layer = Buf.r_str r in
                let layer_version = Buf.r_u32 r in
                let payload = Buf.r_raw r in
                { layer; layer_version; payload })
          in
          { format_version = version; scenario; knobs; seed; events; clock; regions }
        with
        | f when Buf.remaining r = 0 -> Ok f
        | _ -> Error (Bad_region "trailing bytes after the last region")
        | exception Buf.Short -> Error Truncated
      end
    end
  end

let find_region f layer = List.find_opt (fun r -> r.layer = layer) f.regions

(* First byte offset at which two payloads differ; length mismatch counts
   at the shared-prefix boundary. *)
let first_diff_offset a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let rec go i =
    if i >= n then if Bytes.length a = Bytes.length b then None else Some n
    else if Bytes.get a i <> Bytes.get b i then Some i
    else go (i + 1)
  in
  go 0

type mismatch = { m_layer : string; m_offset : int }

(* First differing region between two snapshots, in [a]'s region order.
   A region present on one side only mismatches at offset 0. *)
let diff a b =
  let rec go = function
    | [] ->
      List.find_map
        (fun rb ->
          if find_region a rb.layer = None then
            Some { m_layer = rb.layer; m_offset = 0 }
          else None)
        b.regions
    | ra :: rest -> (
      match find_region b ra.layer with
      | None -> Some { m_layer = ra.layer; m_offset = 0 }
      | Some rb ->
        if ra.layer_version <> rb.layer_version then
          Some { m_layer = ra.layer; m_offset = 0 }
        else (
          match first_diff_offset ra.payload rb.payload with
          | Some off -> Some { m_layer = ra.layer; m_offset = off }
          | None -> go rest))
  in
  go a.regions

let equal a b =
  a.scenario = b.scenario && a.knobs = b.knobs && a.seed = b.seed
  && a.events = b.events && diff a b = None

(* --- host filesystem persistence -------------------------------------- *)

let write_path ~path f =
  let oc = open_out_bin path in
  output_bytes oc (encode f);
  close_out oc

let read_path path =
  match open_in_bin path with
  | exception Sys_error e -> Error (Bad_region e)
  | ic ->
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    decode b

(* --- sparse-range codec ------------------------------------------------ *)

(* The dirty-page delta format shared with [Resilience.Ckpt]:
   [count:u64le] then per range [addr:u64le][len:u64le], then the raw
   range data concatenated in order. The header layout predates this
   module and is kept bit-for-bit (existing checkpoint files and the
   resilience digests depend on it). *)
module Sparse = struct
  let encode_header ranges =
    let count = List.length ranges in
    let head = Bytes.create (8 * (1 + (2 * count))) in
    Bytes.set_int64_le head 0 (Int64.of_int count);
    List.iteri
      (fun i (a, l) ->
        Bytes.set_int64_le head (8 * (1 + (2 * i))) (Int64.of_int a);
        Bytes.set_int64_le head (8 * (2 + (2 * i))) (Int64.of_int l))
      ranges;
    head

  let encode ~ranges ~read =
    let b = Buffer.create 256 in
    Buffer.add_bytes b (encode_header ranges);
    List.iter (fun (addr, len) -> Buffer.add_bytes b (read ~addr ~len)) ranges;
    Buffer.to_bytes b

  (* Returns the ranges and the offset where their data starts. Data
     shorter than the declared ranges is a decode error, never a raise. *)
  let decode_header data =
    let len = Bytes.length data in
    if len < 8 then Error Truncated
    else begin
      let word i = Int64.to_int (Bytes.get_int64_le data (8 * i)) in
      let count = word 0 in
      let head = 8 * (1 + (2 * count)) in
      if count < 0 || len < head then Error Truncated
      else begin
        let ranges = List.init count (fun i -> (word (1 + (2 * i)), word (2 + (2 * i)))) in
        let data_bytes = List.fold_left (fun acc (_, l) -> acc + l) 0 ranges in
        if List.exists (fun (_, l) -> l < 0) ranges || len < head + data_bytes then
          Error Truncated
        else Ok (ranges, head)
      end
    end

  let decode data =
    match decode_header data with
    | Error e -> Error e
    | Ok (ranges, head) ->
      let off = ref head in
      Ok
        (List.map
           (fun (addr, len) ->
             let d = Bytes.sub data !off len in
             off := !off + len;
             (addr, d))
           ranges)
end
