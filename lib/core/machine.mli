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
    ]}

    A machine runs once: every counter, LAN watermark, fault stream and
    lock queue starts from {!create}, so each measured run builds a
    fresh machine. *)

type config = {
  nprocs : int;  (** P: total processors *)
  cluster : int;  (** C: processors per SSMP; must divide P *)
  page_words : int;
  costs : Mgs_machine.Costs.t;
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
  faults : Mgs_net.Fault.spec;
      (** deterministic LAN faults; handlers still see exactly-once
          in-order delivery.  A zero spec installs no plan: the machine
          is the byte-identical faults-free one. *)
  fault_seed : int;  (** seeds the fault plan *)
}

val config :
  ?page_words:int ->
  ?costs:Mgs_machine.Costs.t ->
  ?lan_latency:int ->
  ?shadow:bool ->
  ?features:State.features ->
  ?protocol:State.protocol ->
  ?tlb_entries:int ->
  ?par_jobs:int ->
  ?adapt:bool ->
  ?faults:Mgs_net.Fault.spec ->
  ?fault_seed:int ->
  nprocs:int ->
  cluster:int ->
  unit ->
  config
(** Defaults: 1 KB pages (256 words), {!Mgs_machine.Costs.default} with
    its LAN latency overridden by [lan_latency] when given; [par_jobs]
    defaults to 1 (the calling domain); [adapt] defaults to [false];
    [faults] to {!Mgs_net.Fault.none} and [fault_seed] to 42.
    @raise Invalid_argument on every argument {!create} would refuse:
    [par_jobs < 1], [adapt] under ivy (no adaptive regime), a topology,
    page size or TLB capacity its constructor refuses, a negative LAN
    latency, or more than {!Mgs_am.Am.max_procs} processors. *)

type t = State.t

val create : config -> t
(** Build the machine, its fault plan included.
    @raise Invalid_argument as {!config} does, so a config changed by a
    record update is checked too. *)

val sim : t -> Mgs_engine.Sim.t

val enable_trace : t -> Mgs_obs.Trace.t
(** Record the machine: install the structured event trace (bounded
    ring of 65536 events, per-tag latency histograms, and a span store)
    and wire it into the message layer, the LAN, the locks and every
    protocol engine, which then record their event rows and spans into
    it.  Adopts the store {!enable_spans} created, if any, so the
    caller's spans and the machine's share one store.  Idempotent: a
    second call returns the existing trace.  Call before [run]; with no
    trace installed the emission sites cost one branch each. *)

val enable_spans : t -> Mgs_obs.Trace.t
(** A store for the caller's own spans (read them with
    {!Mgs_obs.Trace.spans}), without recording the machine: the
    protocol engines, active messages, LAN and locks write nothing into
    it, exactly as when no trace exists, so it holds only what the
    caller records.  Returns the trace when {!enable_trace} ran first;
    a later {!enable_trace} adopts this store.  Idempotent.  Call
    before [run]. *)

val trace : t -> Mgs_obs.Trace.t option
(** The machine's store: the trace once {!enable_trace} ran, else the
    {!enable_spans} store, if any. *)

val enable_metrics : ?interval:int -> ?max_samples:int -> t -> Mgs_obs.Metrics.t
(** Install the simulated-clock metrics sampler: per-shard engine
    progress ([engine.executed], [engine.xsends]), messages in flight,
    DUQ lengths, synchronization counters and parked waiters, pages per
    protocol state, servers in REL_IN_PROG, and open spans are
    snapshotted on a boundary grid every [interval] cycles (default
    10000) into a time-series of at most [max_samples] rows per SSMP
    (default 4096) that covers the whole run: a full window doubles
    its interval ({!Mgs_obs.Metrics}).  Every series reads a counter
    the sampling SSMP's shard keeps anyway, so sampling walks no page,
    server or lock table, runs race-free under the parallel engine, and
    the merged export is byte-identical across job counts, home
    migration included.  It records nothing else: the trace stays off
    unless {!enable_trace} turns it on, and [spans.open] counts the
    open spans of whatever store {!enable_trace} or {!enable_spans}
    created (0 without one); a faulted machine adds [net.retransmits],
    [net.dup_drops] and [net.unacked].  Idempotent.  Call before [run];
    the run's final partial interval is always captured. *)

val metrics : t -> Mgs_obs.Metrics.t option
(** The installed metrics sampler, if any. *)

val enable_checker : t -> Invariant.t
(** Attach the online invariant checker, which the protocol engines
    call directly at every transition.  It records nothing: the trace
    stays off unless {!enable_trace} turns it on, and the run keeps its
    [par_jobs] domains.  Inspect the returned checker after [run] with
    {!Invariant.count} / {!Invariant.pp}. *)

val shadow_mismatches : t -> int
(** Number of reads that diverged from the shadow mirror (0 unless the
    [shadow] oracle is on and the protocol lost data). *)

val topo : t -> Mgs_machine.Topology.t
val geom : t -> Mgs_mem.Geom.t
(** Page and line size; every machine has the paper's 16 B (4-word)
    cache lines. *)

val alloc : t -> words:int -> home:Mgs_mem.Allocator.home_policy -> int
(** Reserve shared virtual memory (page-granular); returns the base
    word address.  Each new page gets its server entry here, homed
    where {!Mgs_mem.Allocator.alloc} placed it and with a zero-filled
    master copy; a run makes none.  Call before [run]. *)

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
    @raise Failure if any fiber deadlocks or the run executes 500,000,000
    events (a livelock guard).
    @raise Invalid_argument on a second call: a machine runs once. *)

val assert_quiescent : t -> unit
(** Check end-of-run protocol invariants: every delayed update queue is
    empty, no mapping lock is held, every server entry is out of
    REL_IN_PROG with consistent directories, and the gauge columns the
    metrics sampler reads agree with the state they count (pages per
    state summed over every SSMP; no server in REL_IN_PROG, no parked
    lock waiter).
    @raise Failure describing the first violation. *)
