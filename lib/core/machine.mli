(** Assembly of one simulated DSSMP running the MGS system.

    Typical use:
    {[
      let cfg = Machine.config ~nprocs:32 ~cluster:8 () in
      let m = Machine.create cfg in
      let a = Machine.alloc m ~words:4096 ~home:Mgs_mem.Allocator.Blocked in
      (* initialize shared data outside simulated time *)
      for i = 0 to 4095 do Machine.poke m (a + i) 0.0 done;
      let report = Machine.run m (fun ctx -> ... Api.read ctx (a + i) ...) in
      Format.printf "%a@." Report.pp report
    ]} *)

type config = {
  nprocs : int;  (** P: total processors *)
  cluster : int;  (** C: processors per SSMP; must divide P *)
  page_words : int;
  line_words : int;
  costs : Mgs_machine.Costs.t;
  event_limit : int;  (** livelock guard for [run] *)
  features : State.features;  (** protocol feature toggles (ablations) *)
  protocol : State.protocol;  (** inter-SSMP protocol: MGS or the Ivy baseline *)
  shadow : bool;
      (** maintain a sequentially-consistent mirror and count reads that
          diverge from it — a protocol-correctness oracle valid for
          data-race-free programs *)
  tlb_entries : int option;  (** finite TLB capacity (FIFO); unbounded if [None] *)
  par_jobs : int;
      (** OCaml domains for the event engine, which keeps one
          event-queue shard per SSMP synchronized conservatively on the
          inter-SSMP LAN latency.  Clamped to the SSMP count, and to 1
          when the LAN latency is 0 (no lookahead window).  Reports are
          byte-identical for every [par_jobs]; only wall time differs. *)
  adapt : bool;
      (** adaptive per-page coherence ({!Mgs_cache.Adapt}): classify
          each page's sharing pattern at invalidation-epoch boundaries,
          switch it between the eager-RC multiple-writer, single-writer
          (twinless) and invalidate-on-read regimes, and migrate its
          home to a dominant writer's SSMP.  Off by default; when off,
          every export and counter is byte-identical to a machine
          without the adaptive layer. *)
}

val config :
  ?page_words:int ->
  ?line_words:int ->
  ?costs:Mgs_machine.Costs.t ->
  ?lan_latency:int ->
  ?event_limit:int ->
  ?shadow:bool ->
  ?features:State.features ->
  ?protocol:State.protocol ->
  ?tlb_entries:int ->
  ?par_jobs:int ->
  ?adapt:bool ->
  nprocs:int ->
  cluster:int ->
  unit ->
  config
(** Defaults: 1 KB pages (256 words), 16 B lines, {!Mgs_machine.Costs.default} with
    its LAN latency overridden by [lan_latency] when given; [par_jobs]
    defaults to 1 (the calling domain); [adapt] defaults to [false].
    @raise Invalid_argument if [par_jobs < 1], or if [adapt] is combined
    with a protocol that supports no adaptive regime (ivy). *)

type t = State.t

val create : config -> t

val sim : t -> Mgs_engine.Sim.t

val enable_trace : ?capacity:int -> t -> Mgs_obs.Trace.t
(** Install the structured event trace (bounded ring, default 65536
    events) and wire it into the message layer, the LAN, and every
    protocol engine.  Idempotent: a second call returns the existing
    trace.  Call before [run]; with no trace installed the emission
    sites cost one branch each. *)

val trace : t -> Mgs_obs.Trace.t option
(** The installed event trace, if any. *)

val enable_metrics : ?interval:int -> ?max_samples:int -> t -> Mgs_obs.Metrics.t
(** Install the simulated-clock metrics sampler (implies
    {!enable_trace}): per-shard engine progress ([engine.executed],
    [engine.xsends]), messages in flight, DUQ lengths, synchronization
    counters and parked waiters, pages per protocol state, servers in
    REL_IN_PROG, and open spans are snapshotted on a boundary grid
    every [interval] cycles (default 10000) into a bounded time-series.
    Every series is per-SSMP-cell and read shard-locally, so sampling
    runs race-free under the parallel engine and the merged export is
    byte-identical across job counts.  Idempotent.  Call before [run];
    the run's final partial interval is always captured. *)

val metrics : t -> Mgs_obs.Metrics.t option
(** The installed metrics sampler, if any. *)

val enable_engine_stats : t -> Mgs_obs.Metrics.t
(** Additionally sample the engine's nondeterministic self-profiling
    series — window count, outbox merges, window stalls, barrier wait
    wall time (all 0 unless a run is windowed).  These depend on domain
    scheduling, so they are opt-in: without them the metrics export
    stays byte-identical across job counts.  Implies {!enable_metrics};
    call before [run]. *)

val set_faults : t -> ?seed:int -> Mgs_net.Fault.spec -> unit
(** Install a deterministic fault plan on the LAN (seed default 42):
    the reliable transport activates and the wire misbehaves per the
    spec, but protocol handlers still see exactly-once in-order
    delivery.  A spec with all rates zero uninstalls instead, so
    sweeping intensity through 0 degrades to the byte-identical
    faults-free machine.  If metrics are enabled (before this call),
    transport gauges ([net.retransmits], [net.dup_drops],
    [net.unacked]) are registered.  Call before [run]. *)

val clear_faults : t -> unit
(** Remove the fault plan; subsequent traffic uses the perfect wire. *)

val fault_plan : t -> Mgs_net.Fault.plan option

val enable_checker : ?capacity:int -> t -> Invariant.t
(** Install the event trace (if not already on) and attach the online
    invariant checker to it.  Inspect the returned checker after [run]
    with {!Invariant.count} / {!Invariant.pp}. *)

val reset_stats : t -> unit
(** Zero every statistics surface — protocol counters, message counts,
    LAN state ({!Mgs_net.Lan.reset}, including sender-occupancy
    horizons), cache-model counters, synchronization counters, and the
    shadow-mismatch count — so a measured phase that follows a warmup
    phase reports only its own activity.  The event trace, checker, and
    all protocol state are untouched. *)

val shadow_mismatches : t -> int
(** Number of reads that diverged from the shadow mirror (0 unless the
    [shadow] oracle is on and the protocol lost data). *)

val topo : t -> Mgs_machine.Topology.t
val costs : t -> Mgs_machine.Costs.t
val geom : t -> Mgs_mem.Geom.t

val alloc : t -> words:int -> home:Mgs_mem.Allocator.home_policy -> int
(** Reserve shared virtual memory (page-granular); returns the base
    word address.  Call before [run]. *)

val poke : t -> int -> float -> unit
(** Direct write to the home copy, outside simulated time — for
    initializing inputs before [run]. *)

val peek : t -> int -> float
(** Direct read of the home copy — for verifying outputs after [run]
    (valid once the program has performed its final release/barrier). *)

val run : t -> (Api.ctx -> unit) -> Report.t
(** Spawn one fiber per processor executing the SPMD body, run the
    simulation to completion, and summarize.  Under a fault plan, a
    message that exhausts its retries ends the run early with
    [outcome = Partitioned _] in the report instead of hanging.
    @raise Failure if any fiber deadlocks or the event limit trips. *)

val trace_messages : t -> (string -> unit) -> unit
(** Stream one line per delivered protocol message ("time tag src dst
    words") into the sink, for offline analysis of the message flow.
    Pass-through to {!Mgs_am.Am.set_recorder}; call before [run]. *)

val assert_quiescent : t -> unit
(** Check end-of-run protocol invariants: every delayed update queue is
    empty, no mapping lock is held, and every server entry is out of
    REL_IN_PROG with consistent directories.
    @raise Failure describing the first violation. *)
