(** The fault events the resilience layer injects and consumes: a
    re-export of {!Machine.fault} (documented there), which lives in
    [Machine] because the torus link-down hook emits one. Faults travel
    on the RAS stream as [Machine.Fault] values; [Machine.ras_store]
    writes their text. *)

type t = Machine.fault =
  | L1_parity of { rank : int; core : int }
  | Node_death of { rank : int }
  | Link_failure of { rank : int; dir : int }
  | Link_repair of { rank : int; dir : int }
  | Ciod_crash of { io_node : int; fatal : bool }
  | Ciod_restart of { io_node : int }

val rank : t -> int
(** For CIOD events this is the I/O-node index, not a compute rank. *)

val severity : t -> Bg_obs.Rasdb.severity
