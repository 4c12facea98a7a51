(** Water: N-body molecular dynamics with O(N^2) pairwise force
    interactions (SPLASH; paper section 5.2).

    The molecule array is distributed in contiguous blocks to
    processors; each processor traverses the array linearly starting
    from its own portion (each molecule interacts with the next N/2
    molecules cyclically, covering every pair once).  Pair interactions
    write {e both} molecules' force accumulators under per-molecule
    locks whose token homes follow the owner's SSMP — the access
    pattern that gives Water its multigrain locality (Figure 9:
    breakup penalty 322%, multigrain potential 67%). *)

type params = {
  nmol : int;  (** number of molecules (multiple of 2) *)
  iters : int;
  force_cycles : int;  (** modelled cost of one pair interaction *)
  seed : int;
  lock : Mgs_sync.Locks.kind;  (** molecule/statistics lock algorithm *)
}

val default : params
(** 128 molecules, 2 iterations — scaled from the paper's 343 x 2. *)

val tiny : params

val paper : params
(** The paper's 343-molecule problem (rounded to 344). *)

val problem_size : params -> string

val workload : params -> Mgs_harness.Sweep.workload
(** Verifies final positions against a sequential reference within
    5e-5 relative (force accumulation order varies with the schedule,
    and the nonlinear dynamics amplify the rounding differences). *)

(** Shared with {!Water_kernel} and the tests: *)

val init_positions : params -> float array
(** Deterministic initial molecule positions (3 words each). *)

val pair_force :
  float -> float -> float -> float -> float -> float -> float * float * float
(** [pair_force xi yi zi xj yj zj] is the (bounded, smooth) force on
    molecule i from molecule j; antisymmetric exactly. *)

val pairs_of : params -> int -> int list
(** The partners molecule [i] interacts with (the next nmol/2
    cyclically; every unordered pair appears exactly once). *)
