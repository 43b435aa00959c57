module Partition = Bg_control.Partition
module Torus = Bg_hw.Torus

let surface (a, b, c) = 2 * ((a * b) + (b * c) + (a * c))

let shapes_for ~dims ~nodes =
  let dx, dy, dz = dims in
  let shapes = ref [] in
  for a = 1 to min nodes dx do
    if nodes mod a = 0 then begin
      let rest = nodes / a in
      for b = 1 to min rest dy do
        if rest mod b = 0 then begin
          let c = rest / b in
          if c <= dz then shapes := (a, b, c) :: !shapes
        end
      done
    end
  done;
  List.sort
    (fun s1 s2 -> compare (surface s1, s1) (surface s2, s2))
    !shapes

let canonical_shape ~dims ~nodes =
  match shapes_for ~dims ~nodes with [] -> None | s :: _ -> Some s

let in_flight_penalty = 10_000

let congestion_score torus partition ~base ~shape =
  let ranks = Partition.ranks_of_box partition ~base ~shape in
  List.fold_left
    (fun acc rank ->
      let per_rank = ref 0 in
      for dir = 0 to 5 do
        per_rank :=
          !per_rank
          + Torus.link_busy_cycles torus ~rank ~dir
          + (in_flight_penalty * Torus.link_in_flight torus ~rank ~dir)
      done;
      acc + !per_rank)
    0 ranks

type placement = { shape : int * int * int; base : (int * int * int) option }

(* The free base whose member links are quietest. free_bases is rank-
   ordered, so min-score ties resolve to the lowest base. *)
let least_congested torus partition ~shape =
  List.fold_left
    (fun acc base ->
      let score = congestion_score torus partition ~base ~shape in
      match acc with
      | Some (_, best_score) when best_score <= score -> acc
      | _ -> Some (base, score))
    None
    (Partition.free_bases partition ~shape)
  |> Option.map fst

type table = (int * int * int) list array

let table ~dims =
  let x, y, z = dims in
  Array.init ((x * y * z) + 1) (fun nodes -> shapes_for ~dims ~nodes)

let shapes table nodes =
  if nodes >= 0 && nodes < Array.length table then table.(nodes) else []

let place ~fits table torus partition ~nodes ~comm =
  (* fewer free nodes than the job needs: no box can be free, so skip
     the scan of every base of every shape *)
  if Partition.free_nodes partition < nodes then Error "no free box"
  else
    match
      List.find_opt
        (fun shape -> Option.is_some (Partition.first_free_base partition ~shape))
        (shapes table nodes)
    with
    | None -> Error "no free box"
    | Some shape when not (fits shape) ->
      (* refused before any congestion scoring *)
      Error "blocked by shape cap"
    | Some shape ->
      (* compute-only jobs take the allocator's own first fit: any free
         box is as good as another for pure compute *)
      let base = if comm then least_congested torus partition ~shape else None in
      Ok { shape; base }
