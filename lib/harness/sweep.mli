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
(** Powers of two from 1 to P. *)

val run_point :
  ?page_words:int ->
  ?costs:Mgs_machine.Costs.t ->
  ?lan_latency:int ->
  ?protocol:string ->
  ?faults:Mgs_net.Fault.spec ->
  ?fault_seed:int ->
  ?verify:bool ->
  ?check:bool ->
  ?par:int ->
  ?adapt:bool ->
  nprocs:int ->
  cluster:int ->
  workload ->
  point
(** One configuration.  Default LAN latency 1000 cycles (section 5.2.1),
    1 KB pages; [protocol] (default ["mgs"]) selects a coherence engine
    by name ({!Mgs.Protocol.names}); [faults] installs a
    deterministic fault plan (seeded by [fault_seed], default 42) on the
    LAN; [verify] (default true) runs the workload's checker and
    {!Mgs.Machine.assert_quiescent} — skipped when the run ended in a
    partition, which the caller observes via [report.outcome]; [check]
    (default true) runs the online protocol invariant checker
    ({!Mgs.Invariant}) and fails on any violation; [par] (default 1)
    runs the event engine on that many domains — byte-identical
    results, with or without the checker.  [adapt] (default
    false) turns on the adaptive per-page coherence layer
    ({!Mgs_cache.Adapt}): online sharing-pattern classification, regime
    switching, and home migration.
    @raise Failure on a workload-verifier or invariant failure.
    @raise Invalid_argument on an unknown protocol name, or on [adapt]
    with a protocol that supports no adaptive regime (ivy). *)

val sweep :
  ?page_words:int ->
  ?costs:Mgs_machine.Costs.t ->
  ?lan_latency:int ->
  ?protocol:string ->
  ?verify:bool ->
  ?check:bool ->
  ?par:int ->
  ?adapt:bool ->
  ?clusters:int list ->
  ?jobs:int ->
  nprocs:int ->
  workload ->
  point list
(** All cluster sizes (ascending).  [jobs] (default 1) runs up to that
    many points concurrently on separate domains ({!Mgs_util.Dpool});
    [par] additionally runs the event engine {e inside} each point on
    that many domains.  Results are identical regardless of either
    knob. *)

(** {1 Chaos sweeps}

    Fault-intensity sweeps at a fixed configuration: the fault spec's
    probabilities are scaled through a list of intensities and the
    workload re-run under each resulting plan. *)

type chaos_point = {
  intensity : float;  (** the multiplier applied to [spec]'s rates *)
  spec : Mgs_net.Fault.spec;  (** the scaled spec this point ran under *)
  point : point;
}

val chaos :
  ?intensities:float list ->
  ?spec:Mgs_net.Fault.spec ->
  ?protocol:string ->
  ?page_words:int ->
  ?costs:Mgs_machine.Costs.t ->
  ?lan_latency:int ->
  ?check:bool ->
  seed:int ->
  nprocs:int ->
  cluster:int ->
  workload ->
  chaos_point list
(** Run the workload once per intensity (default [0, 0.25, 0.5, 1.0])
    under [spec] (default {!Mgs_net.Fault.default_chaos}) scaled by that
    intensity; intensity 0 runs the plain faults-free machine.  Each
    point is executed {e twice} and the two reports compared by
    {!Mgs.Report.ident} — the fixed-seed determinism contract — and
    completed runs are verified
    like ordinary sweep points (partitions skip verification and are
    reported in the point's [report.outcome]).  [check] defaults to
    false: a partitioned run legitimately abandons protocol state
    mid-flight, which the invariant checker would flag.
    @raise Failure if a point's two executions disagree, or on a
    workload-verifier failure in a completed run. *)

val pp_chaos_table : Format.formatter -> chaos_point list -> unit
(** One row per intensity: runtime, events, transport counters,
    outcome. *)

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
