(** Tail-latency reporting derived from the span layer.

    The KV tier records one [kv.get]/[kv.put]/[kv.scan] root span per
    completed request, covering scheduled arrival to completion
    (open-loop latency: queueing behind a backlogged client counts),
    partitioned by [kv.queue]/[kv.lock]/[kv.access] phase children.
    Those are the only spans in its store unless a trace was enabled
    too; every other label is skipped.  Everything here is a pure
    function of the recorded spans, so the rendered table is
    byte-identical across [-j], [--par], and reruns. *)

val percentile_of_sorted : int array -> float -> int
(** Exact nearest-rank percentile of an ascending-sorted array: the
    [ceil (q * n)]-th smallest sample.  0 when empty. *)

val rows : Mgs_obs.Span.t -> Mgs_harness.Figures.latency_row list
(** One row per operation class with recorded requests: count, mean,
    exact p50/p99/p999 (nearest-rank over the recorded durations),
    max. *)

val coverage : Mgs_obs.Span.t -> float
(** Fraction of total request latency attributed to phase child spans;
    1.0 when every request's phases were recorded (the phases partition
    each request interval by construction). *)

val table : Mgs_obs.Span.t -> string
(** {!Mgs_harness.Figures.pp_latency_table} over {!rows} with
    {!coverage}. *)
