(** Rendering of sweeps in the paper's formats: runtime-breakdown
    stacked bars (Figures 6-10, 12), the lock hit-rate series
    (Figure 11), and the application summary (Table 4). *)

val breakdown_figure : title:string -> Sweep.point list -> string
(** Stacked User/Lock/Barrier/MGS bars, one per cluster size, plus a
    table of the exact numbers and the three framework metrics. *)

val lock_figure : (string * Sweep.point list) list -> string
(** Figure 11: lock hit ratio per cluster size for several workloads. *)

val pp_lock_table : Micro.lock_point list -> string
(** Figure-11 companion: one row per contended-lock microbenchmark
    point — acquires, hit ratio, handoffs, handoff-gap mean/max and
    coefficient of variation (the fairness figure), and runtime. *)

(** One adaptive-vs-static ablation cell: the same workload and machine
    shape run with the adaptive layer off ([ar_static]) and on
    ([ar_adapt]). *)
type adapt_row = {
  ar_app : string;
  ar_protocol : Mgs.State.protocol;
  ar_procs : int;
  ar_cluster : int;
  ar_static : Mgs.Report.t;
  ar_adapt : Mgs.Report.t;
}

val pp_adapt_table : adapt_row list -> string
(** One row per cell: static vs adaptive cycles, the percentage delta,
    and the adaptive layer's own counters (reclassifications, home
    migrations, forwarded requests, yielded pages, regime residency). *)

val fault_latency : (Sweep.point * Mgs_obs.Span.breakdown) list -> string
(** Table-4-style remote-fault latency decomposition, one row per
    point, rendered purely from the span critical-path breakdown:
    per-fault averages of local-client, LAN wire, DMA,
    server-occupancy, remote-client, and queueing components, the
    uninstrumented residual, and the coverage fraction.  Beside the
    faults analyzed, the fetches the point made ([read_fetches +
    write_fetches]): fewer faults means the span store filled. *)

(** One operation class of the request-serving tier's tail-latency
    report: sample count, mean, and nearest-rank percentiles in
    simulated cycles (computed exactly from the recorded spans). *)
type latency_row = {
  lr_op : string;
  lr_count : int;
  lr_mean : float;
  lr_p50 : int;
  lr_p99 : int;
  lr_p999 : int;
  lr_max : int;
}

val pp_latency_table : ?coverage:float -> latency_row list -> string
(** Aligned p50/p99/p999 table, one row per operation class; with
    [coverage], a trailing line reports the fraction of operation
    latency the span layer attributed to sub-phases. *)

type table4_row = {
  app : string;
  problem_size : string;
  seq_runtime : int;  (** sequential (P = 1) runtime in cycles *)
  speedup : float;  (** speedup on the full machine without MGS (C = P) *)
}

val table4 : table4_row list -> string

val metrics_summary : (string * Sweep.point list) list -> string
(** One row per workload: breakup penalty, multigrain potential,
    curvature class. *)

val pp_shard_table : Mgs_engine.Sim.t -> string
(** Engine self-profile: one row per shard (SSMP) — events executed,
    cross-shard sends, clamped schedules, peak heap occupancy, outbox
    merges, window stalls, and host wall seconds, plus a footer with
    the window count and coordinator barrier wall time.  Executed and
    x-send columns are deterministic across job counts; the rest
    describe the host-side run.  A run that opened no window drained
    one heap: its Peak and Wall columns print [-], and the footer gives
    that heap's peak ({!Mgs_engine.Sim.peak_pending}). *)

val csv_of_sweep : name:string -> Sweep.point list -> string
(** Machine-readable export: one line per cluster size with runtime,
    the four buckets, LAN traffic, and the lock hit ratio. *)

val message_mix : Sweep.point list -> string
(** Table of protocol message counts by tag per cluster size. *)

val protocol_ops : Sweep.point list -> string
(** Table of protocol operation counters per cluster size — fetches,
    upgrades, releases, invalidation fan-out, and the reply mix
    (ACK/DIFF/1WDATA/1WCLEAN, so the single-writer optimization's page
    transfers saved by clean retained copies are visible). *)
