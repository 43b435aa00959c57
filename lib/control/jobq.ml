type 'a node = {
  key : int;
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  index : (int, 'a node) Hashtbl.t;
}

let create () = { head = None; tail = None; index = Hashtbl.create 64 }
let length t = Hashtbl.length t.index
let is_empty t = length t = 0
let mem t key = Hashtbl.mem t.index key

let check_fresh t key =
  if Hashtbl.mem t.index key then invalid_arg "Jobq: duplicate key"

let append t ~key value =
  check_fresh t key;
  let n = { key; value; prev = t.tail; next = None } in
  (match t.tail with
  | None -> t.head <- Some n
  | Some old -> old.next <- Some n);
  t.tail <- Some n;
  Hashtbl.replace t.index key n

let push_front t ~key value =
  check_fresh t key;
  let n = { key; value; prev = None; next = t.head } in
  (match t.head with
  | None -> t.tail <- Some n
  | Some old -> old.prev <- Some n);
  t.head <- Some n;
  Hashtbl.replace t.index key n

let remove t key =
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some n ->
    (match n.prev with None -> t.head <- n.next | Some p -> p.next <- n.next);
    (match n.next with None -> t.tail <- n.prev | Some s -> s.prev <- n.prev);
    n.prev <- None;
    n.next <- None;
    Hashtbl.remove t.index key;
    Some n.value

let find t key =
  match Hashtbl.find_opt t.index key with None -> None | Some n -> Some n.value

let peek t = match t.head with None -> None | Some n -> Some (n.key, n.value)

let iter t f =
  let rec go = function
    | None -> ()
    | Some n ->
      let next = n.next in
      f n.key n.value;
      go next
  in
  go t.head

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

(* Tail to head, so a list built with [::] comes out head first. *)
let fold_back t ~init ~f =
  let rec go acc = function None -> acc | Some n -> go (f n.key n.value acc) n.prev in
  go init t.tail

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
let keys t = List.map fst (to_list t)
