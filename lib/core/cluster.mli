(** Convenience harness: a whole CNK machine ready to run jobs.

    Builds the simulated installation (chips + networks), one CIOD per
    I/O node (sharing one filesystem, like a common GPFS mount), and one
    CNK per compute node; boots everything. This is what bin/, examples/
    and bench/ use to go from "I have a program closure" to "it ran on N
    nodes". *)

type t

val create :
  ?params:Bg_hw.Params.t ->
  ?seed:int64 ->
  ?mapping_config:Mapping.config ->
  ?nodes_per_io_node:int ->
  ?cio:Bg_cio.Reliable.config ->
  dims:int * int * int ->
  unit ->
  t
(** Create and cold-boot every node (boot completes once the sim runs).
    [cio] selects the function-ship transport for every CIOD/CNK pair
    (default {!Bg_cio.Reliable.off}: the legacy lossless protocol). *)

val machine : t -> Machine.t
val sim : t -> Bg_engine.Sim.t
val nodes : t -> Node.t array
val node : t -> int -> Node.t
val fs : t -> Bg_cio.Fs.t
(** The shared filesystem behind all I/O nodes. *)

val ciod_for : t -> rank:int -> Bg_cio.Ciod.t
val ciod : t -> io_node:int -> Bg_cio.Ciod.t
val io_node_count : t -> int

val pset_ranks : t -> io_node:int -> int list
(** The compute-node ranks served by [io_node] — the blast radius of an
    unrecoverable CIOD failure. *)

val boot_all : t -> unit
(** Run the simulation until every node reports booted.
    @raise Bg_engine.Sim.Stalled if the run ends first ([waiting] is the
    nodes not yet booted). *)

val run_job : t -> ?ranks:int list -> Job.t -> unit
(** Launch the job on the given ranks (default: all), then run the
    simulation until every launched node's job completes. Raises
    [Failure] on launch errors.
    @raise Bg_engine.Sim.Stalled if the run ends before completion
    ([waiting] is the nodes whose job has not completed). *)

val launch_all : t -> ?ranks:int list -> Job.t -> unit
(** Launch without running — for harnesses that co-schedule other events.
    Track completion with {!Node.on_job_complete}. *)

val run_until_quiet : t -> unit
(** Drain the event queue. *)
