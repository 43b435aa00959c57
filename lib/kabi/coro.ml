open Effect
open Effect.Deep

type _ Effect.t +=
  | E_consume : int -> unit Effect.t
  | E_syscall : Sysreq.request -> Sysreq.reply Effect.t
  | E_load : (int * int) -> bytes Effect.t
  | E_store : (int * bytes) -> unit Effect.t
  | E_yield : unit Effect.t
  | E_cas : (int * int * int) -> bool Effect.t
  | E_faa : (int * int) -> int Effect.t

exception Killed of string

let consume n =
  if n < 0 then invalid_arg "Coro.consume: negative cycles";
  if n > 0 then perform (E_consume n)

(* The timebase is user-readable, as on the PPC450: no effect, no trap.
   A thread runs only inside a fired event, whose time is its now. *)
let rdtsc () = Bg_engine.Sim.firing_time ()
let syscall r = perform (E_syscall r)
let load ~addr ~len = perform (E_load (addr, len))
let store ~addr data = perform (E_store (addr, data))
let yield () = perform E_yield
let cas ~addr ~expected ~desired = perform (E_cas (addr, expected, desired))
let fetch_add ~addr delta = perform (E_faa (addr, delta))

type step =
  | Finished
  | Crashed of exn
  | Consume of int * (unit, step) continuation
  | Syscall of Sysreq.request * (Sysreq.reply, step) continuation
  | Load of int * int * (bytes, step) continuation
  | Store of int * bytes * (unit, step) continuation
  | Yield of (unit, step) continuation
  | Cas of int * int * int * (bool, step) continuation
  | Fetch_add of int * int * (int, step) continuation

let start f =
  match_with f ()
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> Crashed e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_consume n -> Some (fun (k : (a, step) continuation) -> Consume (n, k))
          | E_syscall r -> Some (fun k -> Syscall (r, k))
          | E_load (addr, len) -> Some (fun k -> Load (addr, len, k))
          | E_store (addr, data) -> Some (fun k -> Store (addr, data, k))
          | E_yield -> Some (fun k -> Yield k)
          | E_cas (addr, expected, desired) -> Some (fun k -> Cas (addr, expected, desired, k))
          | E_faa (addr, delta) -> Some (fun k -> Fetch_add (addr, delta, k))
          | _ -> None);
    }
