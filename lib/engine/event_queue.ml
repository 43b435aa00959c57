(* A handle packs the event's slot and its sequence number,
   [seq lsl slot_bits lor slot], with [seq] cut to the bits that fit
   above the slot, so it is an immediate int and [add] allocates
   nothing for it. *)
type handle = int

let slot_bits = 24
let max_slots = 1 lsl slot_bits
let slot_mask = max_slots - 1
let seq_mask = (1 lsl (62 - slot_bits)) - 1

let tab_size = 64 (* entries in the newest-chain table, keyed by a time's low bits *)

(* Binary min-heap on (time, seq) kept in parallel int arrays, so a sift
   compares and moves only unboxed ints and never runs the write
   barrier. Each heap entry heads a FIFO chain of events at its time,
   linked slot to slot through [next]; payloads, seqs and pending handles
   live in slot-indexed arrays. [add] appends to the newest chain of its
   time when [tab_tail] still holds that chain's tail: [tab_time] must
   match and [pending.(slot) = tail] shows that the tail neither fired
   nor was cancelled. Otherwise it starts a new chain in the heap. So the
   chains of one time hold disjoint, rising seq ranges, and an entry's
   seq, its chain's first, orders it: when the root's head fires, the
   next event of its chain takes the root's slot in place, with no sift.
   Free slots are a stack linked through [next] from [free]. A slot's
   [pending] entry is the handle of the event waiting there, or [-1] once
   it fired or was cancelled: one load both tells a live entry from a
   stale one and tells a handle from an older one whose slot was reused.
   Cancelling clears it and drops the live count; the stale event is
   dropped lazily when it reaches the root. *)
type 'a t = {
  mutable times : int array;  (* heap order *)
  mutable seqs : int array;  (* heap order *)
  mutable slots : int array;  (* heap order: the chain's head *)
  mutable pending : int array;  (* by slot *)
  mutable payloads : 'a array;  (* by slot *)
  mutable slot_seqs : int array;  (* by slot *)
  mutable next : int array;  (* by slot: chain or free stack, [-1] ends *)
  mutable free : int;
  tab_time : int array;
  tab_tail : int array;
  mutable size : int;
  mutable live : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    pending = [||];
    payloads = [||];
    slot_seqs = [||];
    next = [||];
    free = -1;
    tab_time = Array.make tab_size (-1);
    tab_tail = Array.make tab_size (-1);
    size = 0;
    live = 0;
    next_seq = 0;
  }

(* Only called when no slot is free, so the new ones make the free stack.
   The payload fills the fresh tail, so no dummy value of type ['a] is
   needed. A handle has [slot_bits] bits for its slot, which bounds the
   events, pending or stale, and so the heap entries, at [max_slots]. *)
let grow q payload =
  let n = Array.length q.pending in
  if n >= max_slots then
    invalid_arg (Printf.sprintf "Event_queue.add: more than %d events in the queue" max_slots);
  let capacity = min max_slots (max 16 (2 * n)) in
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 n;
    b
  in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.slots <- extend q.slots 0;
  q.pending <- extend q.pending (-1);
  q.payloads <- extend q.payloads payload;
  q.slot_seqs <- extend q.slot_seqs 0;
  q.next <- Array.init capacity (fun i -> if i < n then q.next.(i) else i + 1);
  q.next.(capacity - 1) <- -1;
  q.free <- n

(* The sift loops index only within [0, size), inside every array, so
   they skip the bounds checks. *)
let[@inline] move q ~src ~dst =
  Array.unsafe_set q.times dst (Array.unsafe_get q.times src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.slots dst (Array.unsafe_get q.slots src)

let[@inline] set q i ~time ~seq ~slot =
  Array.unsafe_set q.times i time;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.slots i slot

(* Entry [a] fires before entry [b]. *)
let[@inline] before q a b =
  let ta = Array.unsafe_get q.times a and tb = Array.unsafe_get q.times b in
  ta < tb || (ta = tb && Array.unsafe_get q.seqs a < Array.unsafe_get q.seqs b)

(* [1] when [x < 0], else [0]: bit 62 is the sign of a 63-bit int. *)
let[@inline] negative x = (x asr 62) land 1

(* [1] when entry [l + 1] fires before its sibling [l], else [0]. The
   pick is a coin flip on real heaps, so it is computed without a
   branch; times and seqs are [>= 0], so the differences cannot
   overflow. *)
let[@inline] right_first q l =
  let dt = Array.unsafe_get q.times (l + 1) - Array.unsafe_get q.times l in
  let ds = Array.unsafe_get q.seqs (l + 1) - Array.unsafe_get q.seqs l in
  let differ = negative (dt lor -dt) in
  (differ land negative dt) lor ((1 - differ) land negative ds)

let add q ~time payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  if q.free < 0 then grow q payload;
  let slot = q.free in
  q.free <- Array.unsafe_get q.next slot;
  let k = time land (tab_size - 1) in
  (* [slot] and [k] index inside their arrays. [tab_time] starts at [-1],
     so [tail] names a slot of this queue once its time matches. *)
  let tail = Array.unsafe_get q.tab_tail k in
  let append =
    Array.unsafe_get q.tab_time k = time && Array.unsafe_get q.pending (tail land slot_mask) = tail
  in
  let h = ((seq land seq_mask) lsl slot_bits) lor slot in
  Array.unsafe_set q.pending slot h;
  Array.unsafe_set q.payloads slot payload;
  Array.unsafe_set q.slot_seqs slot seq;
  Array.unsafe_set q.next slot (-1);
  Array.unsafe_set q.tab_time k time;
  Array.unsafe_set q.tab_tail k h;
  q.live <- q.live + 1;
  if append then Array.unsafe_set q.next (tail land slot_mask) slot
  else begin
    (* Sift the hole up. [seq] is the largest ever issued, so an equal
       time never orders the new chain before its parent. *)
    let i = ref q.size in
    q.size <- q.size + 1;
    while !i > 0 && time < Array.unsafe_get q.times ((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      move q ~src:parent ~dst:!i;
      i := parent
    done;
    set q !i ~time ~seq ~slot
  end;
  h

let cancel q h =
  let slot = h land slot_mask in
  if slot < Array.length q.pending && q.pending.(slot) = h then begin
    q.pending.(slot) <- -1;
    q.live <- q.live - 1
  end

(* Free the root's head slot; while its chain goes on, its next event
   takes the root in place. Else remove the root entry, bottom-up: walk
   the hole to a leaf along the earlier child (one comparison a level),
   then sift the last entry up from there; it is usually late. *)
let remove_top q =
  let freed = q.slots.(0) in
  let after = Array.unsafe_get q.next freed in
  Array.unsafe_set q.next freed q.free;
  q.free <- freed;
  if after >= 0 then q.slots.(0) <- after
  else begin
    let n = q.size - 1 in
    q.size <- n;
    if n > 0 then begin
      let i = ref 0 and l = ref 1 in
      while !l < n do
        let c = if !l + 1 < n then !l + right_first q !l else !l in
        move q ~src:c ~dst:!i;
        i := c;
        l := (2 * c) + 1
      done;
      let time = q.times.(n) and seq = q.seqs.(n) and slot = q.slots.(n) in
      while !i > 0 && before q n ((!i - 1) / 2) do
        let parent = (!i - 1) / 2 in
        move q ~src:parent ~dst:!i;
        i := parent
      done;
      set q !i ~time ~seq ~slot
    end
  end

let rec drop_stale q =
  if q.size = 0 then -1
  else if q.pending.(q.slots.(0)) >= 0 then q.times.(0)
  else begin
    remove_top q;
    drop_stale q
  end

(* The common case, a live root, inlines into the callers. *)
let[@inline] top_time q =
  if q.size > 0 && q.pending.(q.slots.(0)) >= 0 then q.times.(0) else drop_stale q

(* Fire the root entry, which [top_time] found live. *)
let[@inline] take_root q =
  let slot = q.slots.(0) in
  let payload = q.payloads.(slot) in
  q.pending.(slot) <- -1;
  q.live <- q.live - 1;
  remove_top q;
  payload

let take_top q =
  if top_time q < 0 then invalid_arg "Event_queue.take_top: no live event";
  take_root q

let pop q =
  let time = top_time q in
  if time < 0 then None else Some (time, take_root q)

let length q = q.live
let next_seq q = q.next_seq

let live q =
  let out = ref [] in
  for i = 0 to q.size - 1 do
    let s = ref q.slots.(i) in
    while !s >= 0 do
      if q.pending.(!s) >= 0 then out := (q.times.(i), q.slot_seqs.(!s)) :: !out;
      s := q.next.(!s)
    done
  done;
  List.sort compare !out
