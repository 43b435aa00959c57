type record = { cycle : Cycles.t; label : string; value : int64 }

type t = {
  keep_records : bool;
  digest : Fnv.Acc.t;
  mutable count : int;
  mutable records : record list;  (* newest first *)
  mutable last_cycle : Cycles.t;
}

let create ?(keep_records = false) () =
  { keep_records; digest = Fnv.Acc.create (); count = 0; records = []; last_cycle = 0 }

(* [Fnv.Acc.int] folds the bytes [Fnv.add_int64 (Int64.of_int value)]
   would, so the digest is the one an [int64] value gave. *)
let emit t ~cycle ~label ~value =
  Fnv.Acc.int t.digest cycle;
  Fnv.Acc.string t.digest label;
  Fnv.Acc.int t.digest value;
  t.count <- t.count + 1;
  t.last_cycle <- cycle;
  if t.keep_records then
    t.records <- { cycle; label; value = Int64.of_int value } :: t.records

let digest t = Fnv.Acc.value t.digest
let count t = t.count
let records t = List.rev t.records

let iter t f =
  (* Oldest-first over the newest-first spine without materialising the
     reversed list; depth = number of retained records. *)
  let rec go = function
    | [] -> ()
    | r :: rest ->
      go rest;
      f r
  in
  go t.records

let last_cycle t = t.last_cycle
