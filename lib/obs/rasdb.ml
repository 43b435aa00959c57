(* Bounded, indexed RAS event database. Indexes are aggregate (over
   every record ever inserted); the ring retains the most recent
   [capacity] records for record-level queries. *)

open Bg_engine

type severity = Info | Warn | Error

let severity_name = function Info -> "info" | Warn -> "warn" | Error -> "error"
let severity_ord = function Info -> 0 | Warn -> 1 | Error -> 2

type record = {
  seq : int;
  cycle : Cycles.t;
  rank : int;
  severity : severity;
  component : string;
  message : string;
}

type t = {
  cap : int;
  ring : record option array;
  mutable inserted : int;
  severity_counts : int array;  (* indexed by severity_ord *)
  component_counts : (string, int) Hashtbl.t;
  rank_counts : (int, int) Hashtbl.t;
  mutable subscribers : (record -> unit) list;  (* reversed reg. order *)
  mutable digest : Fnv.t;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Rasdb.create: capacity must be positive";
  {
    cap = capacity;
    ring = Array.make capacity None;
    inserted = 0;
    severity_counts = Array.make 3 0;
    component_counts = Hashtbl.create 16;
    rank_counts = Hashtbl.create 64;
    subscribers = [];
    digest = Fnv.empty;
  }

let capacity t = t.cap

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let add t ~cycle ~rank ~severity ~component ~message =
  let r = { seq = t.inserted; cycle; rank; severity; component; message } in
  t.ring.(t.inserted mod t.cap) <- Some r;
  t.inserted <- t.inserted + 1;
  t.severity_counts.(severity_ord severity) <-
    t.severity_counts.(severity_ord severity) + 1;
  bump t.component_counts component;
  bump t.rank_counts rank;
  let h = t.digest in
  let h = Fnv.add_int h r.seq in
  let h = Fnv.add_int h r.cycle in
  let h = Fnv.add_int h r.rank in
  let h = Fnv.add_int h (severity_ord severity) in
  let h = Fnv.add_string h r.component in
  let h = Fnv.add_string h r.message in
  t.digest <- h;
  List.iter (fun f -> f r) (List.rev t.subscribers);
  r

let on_insert t f = t.subscribers <- f :: t.subscribers

let count t = t.inserted
let retained t = min t.inserted t.cap
let dropped t = max 0 (t.inserted - t.cap)
let severity_count t s = t.severity_counts.(severity_ord s)
let component_count t c =
  Option.value ~default:0 (Hashtbl.find_opt t.component_counts c)
let rank_count t r = Option.value ~default:0 (Hashtbl.find_opt t.rank_counts r)

let components t =
  Hashtbl.fold (fun c _ acc -> c :: acc) t.component_counts []
  |> List.sort String.compare

(* Retained records oldest first. *)
let retained_list t =
  let n = retained t in
  let first = t.inserted - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.cap) with
      | Some r -> r
      | None -> assert false)

let matches ?severity ?component ?rank ?since (r : record) =
  (match severity with Some s -> r.severity = s | None -> true)
  && (match component with Some c -> String.equal r.component c | None -> true)
  && (match rank with Some k -> r.rank = k | None -> true)
  && match since with Some c -> r.cycle >= c | None -> true

let records t ?severity ?component ?rank ?since () =
  List.filter (matches ?severity ?component ?rank ?since) (retained_list t)

let tail t n =
  let all = retained_list t in
  let len = List.length all in
  List.filteri (fun i _ -> i >= len - n) all

let rate t ?severity ?component ?rank ~window ~now () =
  List.length
    (List.filter
       (fun r ->
         r.cycle > now - window && r.cycle <= now
         && matches ?severity ?component ?rank r)
       (retained_list t))

let publish_gauges t obs =
  let set name v = Obs.set_gauge obs ~subsystem:"ras" ~name v in
  set "info" t.severity_counts.(0);
  set "warn" t.severity_counts.(1);
  set "error" t.severity_counts.(2);
  set "total" t.inserted;
  set "dropped" (dropped t)

let digest t = t.digest

let pp_record fmt r =
  Format.fprintf fmt "[%d @%d r%d %s/%s] %s" r.seq r.cycle r.rank
    (severity_name r.severity) r.component r.message
