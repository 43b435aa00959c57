(** Deterministic fault injection.

    Schedules transient L1 parity errors, node deaths, and torus link
    failures as ordinary simulation events, with inter-arrival times drawn
    from named {!Bg_engine.Rng} streams of the machine's seeded RNG — so a
    fault campaign is a pure function of (seed, config) and the whole
    run (faults, detection, recovery schedule) replays bit-identically.

    Each injected fault is published on the RAS stream as a
    [Machine.Fault] event; detection/recovery is someone else's job
    (see {!Recovery}). A node death additionally kills whatever the victim
    node was running, so an unattended machine still observes the hang the
    paper's §VI complains about — attaching {!Recovery} is what turns the
    event into a clean kill + reallocation. *)

type config = {
  parity_mean : float;  (** mean cycles between L1 parity errors; 0 = off *)
  death_mean : float;   (** mean cycles between node deaths; 0 = off *)
  link_mean : float;    (** mean cycles between torus link failures; 0 = off *)
  link_repair_after : int;  (** cycles until a broken link is repaired; 0 = never *)
  ciod_crash_mean : float;  (** mean cycles between CIOD crashes; 0 = off *)
  ciod_restart_after : int;
      (** cycles until a crashed CIOD restarts; [<= 0] makes every crash
          fatal (the daemon never returns and the pset is lost) *)
  horizon : int;  (** absolute cycle after which nothing more is injected *)
}

val default : config
(** Everything off; fill in the rates you want. *)

type t

val attach : ?config:config -> Cnk.Cluster.t -> t
(** Start the configured fault streams against a booted cluster. *)

val inject_now : t -> Fault_event.t -> unit
(** Scripted injection (tests, demos): apply one fault immediately —
    same effect and RAS publication as a scheduled one. *)

val injected : t -> (Bg_engine.Cycles.t * Fault_event.t) list
(** Everything injected so far, in injection order. *)

val dead_ranks : t -> int list
val parity_count : t -> int
val death_count : t -> int
val link_count : t -> int
val ciod_crash_count : t -> int
