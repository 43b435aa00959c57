include Hashtbl.Make (struct
  type t = int * int

  let equal ((r1 : int), (c1 : int)) (r2, c2) = r1 = r2 && c1 = c2
  let hash (rank, core) = ((rank * 65_599) + core) land max_int
end)
