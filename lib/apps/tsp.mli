(** Traveling Salesman Problem by branch and bound with a centralized
    work queue (paper section 5.2).

    Partial tours ("path elements") live contiguously in shared memory —
    small records randomly handed to processors, so heavy false sharing
    at page grain — and both the work queue and the best-tour bound sit
    behind one central lock.  Under software coherence the short
    critical sections dilate (a release happens before the lock frees),
    which is why the paper measures a 25x breakup penalty (Figure 8). *)

type params = {
  ncities : int;
  seed : int;  (** distance matrix generator seed *)
  eval_cycles : int;  (** modelled cost of evaluating one tour extension *)
  lock : Mgs_sync.Locks.kind;  (** work-queue lock algorithm *)
}

val default : params
(** 10 cities, as in the paper (with a synthetic distance matrix). *)

val tiny : params

val paper : params
(** The paper's 10-city problem (same as [default]). *)

val problem_size : params -> string

val best_cost : params -> int
(** Optimal tour cost computed sequentially (for tests). *)

val workload : params -> Mgs_harness.Sweep.workload
(** Verifies the parallel optimum equals the sequential optimum. *)
