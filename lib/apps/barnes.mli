(** Barnes-Hut: 3-D hierarchical N-body simulation (SPLASH; paper
    section 5.2).

    Each iteration rebuilds a shared octree in parallel (per-cell locks,
    with cells allocated from per-processor pools — the contention fix
    the paper applies), computes centers of mass bottom-up, then
    computes forces by tree traversal with the opening criterion
    [cell size / distance < theta] and advances the owned bodies.

    The tree build is the paper's example of a fine-grained phase whose
    critical sections dilate badly under software coherence (Figure 10:
    breakup penalty 161%, but the highest multigrain potential, 85%). *)

type params = {
  nbodies : int;
  iters : int;
  theta : float;  (** opening criterion *)
  force_cycles : int;  (** modelled cost per body-body/body-cell interaction *)
  seed : int;
  lock : Mgs_sync.Locks.kind;  (** cell lock algorithm *)
}

val default : params
(** 128 bodies, 2 iterations, theta = 0.6 — scaled from the paper's
    2K bodies x 3 iterations. *)

val tiny : params

val paper : params
(** The paper's 2K-body, 3-iteration problem (long simulation). *)

val problem_size : params -> string

val seq_reference : params -> float array
(** Final body positions from the sequential algorithm (exposed for the
    tests). *)

val workload : params -> Mgs_harness.Sweep.workload
(** Verifies final positions against a sequential reference running the
    identical algorithm (the octree geometry is insertion-order
    independent, so results match to ~1e-9). *)
