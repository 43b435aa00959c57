type t = Machine.fault =
  | L1_parity of { rank : int; core : int }
  | Node_death of { rank : int }
  | Link_failure of { rank : int; dir : int }
  | Link_repair of { rank : int; dir : int }
  | Ciod_crash of { io_node : int; fatal : bool }
  | Ciod_restart of { io_node : int }

let rank = Machine.fault_rank
let severity = Machine.fault_severity
