type unit_id = Torus_unit | Collective_unit | Barrier_unit | Dma_unit | L2_bank of int

type core = {
  core_id : int;
  tlb : Tlb.t;
  dac : Dac.t;
  mutable retired : int;
}

type t = {
  id : int;
  params : Params.t;
  cores : core array;
  dram : Dram.t;
  boot_sram : Memory.t;
  mutable l2 : Cache.t;
  upc : Upc.t;
  units : (unit_id, Fault.status) Hashtbl.t;
  mutable reset_count : int;
}

let unit_name = function
  | Torus_unit -> "torus"
  | Collective_unit -> "collective"
  | Barrier_unit -> "barrier"
  | Dma_unit -> "dma"
  | L2_bank i -> Printf.sprintf "l2-bank-%d" i

let create ?(params = Params.bgp) ~id () =
  let make_core core_id =
    { core_id; tlb = Tlb.create ~capacity:params.Params.tlb_entries; dac = Dac.create (); retired = 0 }
  in
  let t =
    {
      id;
      params;
      cores = Array.init params.Params.cores_per_node make_core;
      dram = Dram.create ~size:params.Params.dram_bytes;
      boot_sram = Memory.create ~size:(64 * 1024);
      l2 = Cache.create ~banks:params.Params.l2_banks Cache.Xor_fold;
      upc = Upc.create ~cores:params.Params.cores_per_node ();
      units = Hashtbl.create 8;
      reset_count = 0;
    }
  in
  Array.iter
    (fun c ->
      Tlb.set_miss_hook c.tlb (fun () ->
          Upc.record t.upc ~core:c.core_id Upc.Tlb_miss 1);
      Tlb.set_refill_hook c.tlb (fun n ->
          Upc.record t.upc ~core:c.core_id Upc.Tlb_refill n))
    t.cores;
  Cache.set_access_hook t.l2 (fun () ->
      Upc.record t.upc ~core:Upc.chip_scope Upc.L1_miss 1);
  Dram.set_self_refresh_hook t.dram (fun () ->
      Upc.record t.upc ~core:Upc.chip_scope Upc.Dram_self_refresh 1);
  t

let id t = t.id
let params t = t.params
let cores t = t.cores

let core t i =
  if i < 0 || i >= Array.length t.cores then invalid_arg "Chip.core";
  t.cores.(i)

let dram t = t.dram
let memory t = Dram.memory t.dram
let boot_sram t = t.boot_sram
let l2 t = t.l2

let upc t = t.upc

let set_l2_mapping t mapping =
  t.l2 <- Cache.create ~banks:t.params.Params.l2_banks mapping;
  Cache.set_access_hook t.l2 (fun () ->
      Upc.record t.upc ~core:Upc.chip_scope Upc.L1_miss 1);
  t

let unit_status t u =
  match Hashtbl.find_opt t.units u with Some s -> s | None -> Fault.Working

let set_unit_status t u s = Hashtbl.replace t.units u s
let check_unit t u = Fault.check ~name:(unit_name u) (unit_status t u)

let manufacturing_skew t =
  (* Deterministic per-chip variability derived from the chip id. *)
  let h = Bg_engine.Fnv.add_int Bg_engine.Fnv.empty (t.id * 2654435761) in
  let v = Int64.to_float (Int64.shift_right_logical h 11) in
  v /. 9007199254740992.0

let reset t =
  Array.iter
    (fun c ->
      Tlb.flush c.tlb;
      for slot = 0 to Dac.registers - 1 do
        Dac.set c.dac ~slot None
      done;
      c.retired <- 0)
    t.cores;
  Dram.on_reset t.dram;
  Upc.reset t.upc;
  t.reset_count <- t.reset_count + 1

let reset_count t = t.reset_count

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_i64 = Buffer.add_int64_le b in
  let w_s s =
    w_i (String.length s);
    Buffer.add_string b s
  in
  w_i t.id;
  w_i t.reset_count;
  w_i (Array.length t.cores);
  Array.iter
    (fun c ->
      w_i c.retired;
      w_i (Dac.violations c.dac);
      for slot = 0 to Dac.registers - 1 do
        match Dac.get c.dac ~slot with
        | None -> Buffer.add_uint8 b 0
        | Some w ->
          Buffer.add_uint8 b 1;
          w_i w.Dac.lo;
          w_i w.Dac.hi;
          Buffer.add_uint8 b (if w.Dac.on_store then 1 else 0);
          Buffer.add_uint8 b (if w.Dac.on_load then 1 else 0)
      done;
      Tlb.capture c.tlb b)
    t.cores;
  Cache.capture t.l2 b;
  Upc.capture t.upc b;
  w_i64 (Dram.digest t.dram);
  Buffer.add_uint8 b (if Dram.in_self_refresh t.dram then 1 else 0);
  w_i64 (Memory.digest t.boot_sram);
  let units =
    Hashtbl.fold (fun u s acc -> (unit_name u, s) :: acc) t.units []
    |> List.sort compare
  in
  w_i (List.length units);
  List.iter
    (fun (name, status) ->
      w_s name;
      match (status : Fault.status) with
      | Fault.Working -> Buffer.add_uint8 b 0
      | Fault.Broken why ->
        Buffer.add_uint8 b 1;
        w_s why
      | Fault.Absent -> Buffer.add_uint8 b 2)
    units

let scan_state t =
  let open Bg_engine in
  let h = Fnv.add_int Fnv.empty t.id in
  let h =
    Array.fold_left
      (fun h c ->
        let h = Fnv.add_int h c.retired in
        let h = Fnv.add_int h (Tlb.entry_count c.tlb) in
        List.fold_left
          (fun h (e : Tlb.entry) ->
            let h = Fnv.add_int h e.Tlb.vaddr in
            Fnv.add_int h e.Tlb.paddr)
          h (Tlb.entries c.tlb))
      h t.cores
  in
  Fnv.add_int64 h (Dram.digest t.dram)
