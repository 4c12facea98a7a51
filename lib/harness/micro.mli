(** Micro measurements reproducing Table 3: the cost of primitive MGS
    operations, measured by bracketing single operations inside tiny
    simulated programs (1 KB pages, zero inter-SSMP delay, as in the
    paper). *)

type measurement = {
  name : string;
  group : string;  (** "Hardware Shared Memory" etc., as in Table 3 *)
  paper : int;  (** the paper's measured value (cycles @20 MHz) *)
  measured : int;  (** this simulator's value *)
}

val run_all : ?costs:Mgs_machine.Costs.t -> unit -> measurement list
(** Execute every micro benchmark; order matches Table 3. *)

val print_table : measurement list -> unit
(** Render the Table 3 comparison (paper vs measured vs ratio). *)

(** {1 Contended-lock microbenchmarks}

    The Figure 11 companion for {!Mgs_sync.Locks}: a
    family of single-lock contention runs measuring handoff latency,
    hit ratio, and fairness per lock algorithm, cluster size, and
    coherence protocol.  Every critical section increments a
    lock-protected shared counter, which is verified after the run —
    mutual exclusion and coherence are checked, not assumed. *)

type lock_point = {
  lk_lock : Mgs_sync.Locks.kind;
  lk_protocol : string;
  lk_cluster : int;
  lk_fibers : int;  (** contending fibers (one per processor) *)
  lk_acquires : int;
  lk_hit_ratio : float;
  lk_handoffs : int;
  lk_gap : Mgs_sync.Locks.gap_stats;  (** handoff latency + fairness *)
  lk_runtime : int;
  lk_sim_events : int;
}

val lock_point :
  ?iters:int ->
  ?crit:int ->
  ?think:int ->
  ?par:int ->
  ?adapt:bool ->
  lock:Mgs_sync.Locks.kind ->
  protocol:string ->
  cluster:int ->
  fibers:int ->
  unit ->
  lock_point
(** One run: [fibers] contenders (default 16 iterations each, 200-cycle
    critical sections, 1500-cycle think time) on a machine with
    [max fibers cluster] processors (rounded up so C divides P).
    [par] (default 1) runs the event engine on that many domains
    (results are identical for any value); [adapt] turns
    on the adaptive coherence layer — lock-protected counters are the
    canonical migratory pattern.
    @raise Failure if the protected counter lost an increment or the
    machine fails {!Mgs.Machine.assert_quiescent}. *)

val lock_family :
  ?iters:int ->
  ?crit:int ->
  ?think:int ->
  ?par:int ->
  ?adapt:bool ->
  ?jobs:int ->
  (Mgs_sync.Locks.kind * string * int * int) list ->
  lock_point list
(** Run (lock, protocol, cluster, fibers) specs in order; [jobs]
    (default 1) fans points over domains with byte-identical results. *)

val lock_cluster_specs : ?fibers:int -> unit -> (Mgs_sync.Locks.kind * string * int * int) list
(** Every lock at C in [{1,4,16}] under every protocol, at a
    fixed contention level (default 16 fibers). *)

val lock_contention_specs :
  ?cluster:int -> ?protocol:string -> unit -> (Mgs_sync.Locks.kind * string * int * int) list
(** Every lock at 1, 4, 16, and 64 contending fibers, at a
    fixed cluster size (default 4) and protocol (default mgs). *)
