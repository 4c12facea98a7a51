(** Cluster-size sweeps and the paper's DSSMP performance framework
    (section 2.4): run a workload at a fixed processor count P while the
    cluster size C ranges over powers of two, and derive the breakup
    penalty, multigrain potential, and multigrain curvature. *)

type workload = {
  name : string;
  prepare : Mgs.Machine.t -> (Mgs.Api.ctx -> unit) * (Mgs.Machine.t -> unit);
      (** Allocate and initialize shared data on a fresh machine; return
          the SPMD body and a post-run verifier (which may raise). *)
}

type point = { cluster : int; report : Mgs.Report.t }

val clusters_of : int -> int list
(** The powers of two that divide P, ascending: every cluster size a
    machine of P processors accepts that is a power of two. *)

val run_point : ?check:bool -> Mgs.Machine.config -> workload -> point
(** Build the machine [cfg] describes, its fault plan included, run the
    workload on it, and verify the run: the workload's checker and
    {!Mgs.Machine.assert_quiescent}, skipped when the run ended in a
    partition, which the caller observes via [report.outcome].  [check]
    (default true) runs the online protocol invariant checker
    ({!Mgs.Invariant}) and fails on any violation.  Results are
    byte-identical for every [cfg.par_jobs], with or without the
    checker.  Every table [bench/main.exe] prints runs through here;
    only [mgs_run], the examples, the tests and [perfbench/] build a
    machine themselves.
    @raise Failure on a workload-verifier or invariant failure. *)

val sweep : ?clusters:int list -> ?jobs:int -> Mgs.Machine.config -> workload -> point list
(** {!run_point} on [{ cfg with cluster }] at every cluster size in
    [clusters] (default [clusters_of cfg.nprocs]),
    with the invariant checker on.  [jobs] (default 1) runs up to that
    many points concurrently on separate domains ({!Mgs_util.Dpool});
    [cfg.par_jobs] additionally runs the event engine {e inside} each
    point on that many domains.  Results are identical regardless of
    either knob. *)

(** Framework metrics over a sweep (which must include C = 1 .. P). *)

val runtime_of : point list -> int -> int
(** Runtime at a given cluster size.
    @raise Invalid_argument naming the missing cluster size if the sweep
    holds no point for it. *)

val breakup_penalty : point list -> float
(** [(T(P/2) - T(P)) / T(P)] — e.g. 3.22 for Water's 322%. *)

val multigrain_potential : point list -> float
(** [(T(1) - T(P/2)) / T(P/2)] — how much faster the application runs
    when each node is a (P/2)-way multiprocessor rather than a
    uniprocessor ("applications execute up to 85% faster ..."), e.g.
    0.67 for Water, 0.85 for Barnes-Hut. *)

val multigrain_curvature : point list -> float
(** Mean signed deviation of the runtime curve from the chord joining
    (log C = 0, T(1)) and (log C = log P/2, T(P/2)), normalized by T(1):
    positive means the curve lies below the chord (convex — most of the
    potential realized at small clusters), negative concave. *)

val curvature_class : point list -> string
(** ["convex"], ["concave"], or ["flat"]. *)

(** Pure variants over [(cluster, runtime)] curves, used by the tests: *)

val runtime_of_rt : (int * int) list -> int -> int

val breakup_penalty_rt : (int * int) list -> float

val multigrain_potential_rt : (int * int) list -> float

val curvature_class_rt : (int * int) list -> string
