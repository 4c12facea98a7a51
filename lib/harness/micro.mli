(** Micro measurements reproducing Table 3: the cost of primitive MGS
    operations, measured by bracketing single operations inside tiny
    simulated programs (1 KB pages, zero inter-SSMP delay, as in the
    paper).  These and the contended-lock runs below are checked
    {!Sweep.run_point}s. *)

type measurement = {
  name : string;
  group : string;  (** "Hardware Shared Memory" etc., as in Table 3 *)
  paper : int;  (** the paper's measured value (cycles @20 MHz) *)
  measured : int;  (** this simulator's value *)
}

val run_all : unit -> measurement list
(** Execute every micro benchmark on the default costs; order matches
    Table 3. *)

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
  lk_protocol : Mgs.State.protocol;
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
  ?par:int ->
  lock:Mgs_sync.Locks.kind ->
  protocol:Mgs.State.protocol ->
  cluster:int ->
  fibers:int ->
  unit ->
  lock_point
(** One run: [fibers] contenders (default 16 iterations each, 200-cycle
    critical sections, 1500-cycle think time) on a machine with
    [max fibers cluster] processors (rounded up so C divides P).
    [par] (default 1) runs the event engine on that many domains
    (results are identical for any value).
    @raise Failure if the protected counter lost an increment or the
    run fails {!Sweep.run_point}'s checks. *)

type lock_spec = Mgs_sync.Locks.kind * Mgs.State.protocol * int * int
(** (lock, protocol, cluster, fibers) *)

val lock_family : ?iters:int -> ?par:int -> ?jobs:int -> lock_spec list -> lock_point list
(** Run specs in order; [jobs] (default 1) fans points over domains
    with byte-identical results. *)

val lock_cluster_specs : unit -> lock_spec list
(** Every lock at C in [{1,4,16}] under every protocol, with 16
    contending fibers. *)

val lock_contention_specs : unit -> lock_spec list
(** Every lock at 1, 4, 16, and 64 contending fibers, at C = 4 under
    MGS. *)
