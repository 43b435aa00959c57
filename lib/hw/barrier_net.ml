open Bg_engine

let release_label = Trace.label "barrier.release"


type waiter = { rank : int; on_release : release_cycle:Cycles.t -> unit }

type t = {
  sim : Sim.t;
  params : Params.t;
  participants : int;
  mutable waiters : waiter list;  (* newest first *)
  mutable generation : int;
  mutable enabled : bool;
  mutable on_arrive : rank:int -> unit;
}

let create sim ?(params = Params.bgp) ~participants () =
  if participants <= 0 then invalid_arg "Barrier_net.create";
  {
    sim;
    params;
    participants;
    waiters = [];
    generation = 0;
    enabled = true;
    on_arrive = (fun ~rank:_ -> ());
  }

let set_arrive_hook t f = t.on_arrive <- f

let participants t = t.participants
let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let generation t = t.generation
let waiting t = List.length t.waiters

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  w_i t.participants;
  w_i t.generation;
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  let ranks = List.map (fun w -> w.rank) t.waiters |> List.sort compare in
  w_i (List.length ranks);
  List.iter w_i ranks

let arrive t ~rank ~on_release =
  if not t.enabled then raise (Fault.Unavailable "barrier");
  if rank < 0 || rank >= t.participants then invalid_arg "Barrier_net.arrive";
  if List.exists (fun w -> w.rank = rank) t.waiters then
    invalid_arg "Barrier_net.arrive: rank already waiting";
  t.waiters <- { rank; on_release } :: t.waiters;
  t.on_arrive ~rank;
  if List.length t.waiters = t.participants then begin
    let release_cycle = Sim.now t.sim + t.params.Params.barrier_round_cycles in
    (* Release in rank order for determinism. *)
    let all = List.sort (fun a b -> compare a.rank b.rank) t.waiters in
    t.waiters <- [];
    t.generation <- t.generation + 1;
    Sim.emit t.sim ~label:release_label ~value:t.generation;
    List.iter
      (fun w ->
        ignore
          (Sim.schedule_at t.sim release_cycle (fun () -> w.on_release ~release_cycle)))
      all
  end
