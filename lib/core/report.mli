(** Run summary: the paper's runtime breakdown plus protocol, network,
    cache, and synchronization counters. *)

type breakdown = {
  user : float;  (** mean cycles per processor: computation + translation + hw stalls *)
  lock : float;  (** lock acquire/release and lock waiting *)
  barrier : float;  (** barrier overhead and waiting *)
  mgs : float;  (** software coherence: fault service, releases, handler occupancy *)
}

type outcome =
  | Completed
  | Partitioned of {
      src_ssmp : int;
      dst_ssmp : int;
      tag : string;
      retries : int;
    }
      (** A message exhausted its retransmission budget under a fault
          plan; the run was abandoned at that point and every counter
          below reflects progress up to it. *)

type t = {
  outcome : outcome;
  nprocs : int;
  cluster : int;
  runtime : int;  (** parallel execution time: max processor finish time *)
  breakdown : breakdown;
  per_proc_total : int array;  (** total charged cycles per processor *)
  pstats : Pstats.t;  (** protocol counters (snapshot) *)
  cache : Mgs_cache.Coherence.stats;  (** aggregated over all SSMPs *)
  lan_messages : int;
  lan_words : int;
  messages_by_tag : (string * int) list;  (** protocol message mix (RREQ, REL, ...) *)
  lock_acquires : int;
  lock_hits : int;
  barrier_episodes : int;
  sim_events : int;  (** discrete events executed by the simulator *)
  peak_queue : int;  (** high-water mark of the event queue *)
  wall_seconds : float;
      (** host wall-clock time of {!Machine.run}.  Excluded from
          figures/CSV so parallel and sequential sweeps render
          byte-identically. *)
}

val of_machine : wall_seconds:float -> outcome:outcome -> State.t -> t

val completed : t -> bool

val pp_outcome : Format.formatter -> outcome -> unit

val total : breakdown -> float

val lock_hit_ratio : t -> float
(** Fraction of lock acquires satisfied without inter-SSMP
    communication; 1.0 when there were no acquires. *)

val pp_throughput : Format.formatter -> t -> unit
(** [events=... peak_queue=... wall=...s (... events/s)] — printed in
    normal runs so perf regressions are visible without the bench. *)

val pp : Format.formatter -> t -> unit
(** One-paragraph human-readable summary (includes throughput). *)

val ident : t -> string
(** Every field except [wall_seconds] and [peak_queue], the host and
    engine artifacts: runs of one configuration with one seed give the
    same string at every engine job count. *)
