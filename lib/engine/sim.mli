(** Discrete-event simulation core.

    A simulator owns timestamped events (callbacks), partitioned into one
    shard per SSMP cluster.  [run] executes events in nondecreasing
    time order; ties are broken by each event's key ({!Shardq}): the
    scheduling shard's clock at creation, its id and its counter, so a
    run is fully deterministic.  A key is integers and an event's
    payload waits in the heap's slab, so scheduling and running an
    event whose callback already exists allocates nothing.
    All simulated components (network links, protocol engines,
    processor fibers) interact exclusively by scheduling events.

    With an effective job count of 1 the engine drains a single heap in
    key order on the calling domain; with jobs >= 2 it drains per-shard
    heaps on OCaml Domains between conservative lookahead barriers,
    merging cross-shard sends at window boundaries.  Both produce
    identical results: a key is a function of its creating shard's own
    history, and every cross-shard event fires at least [lookahead]
    after its creation, which the LAN's fixed inter-SSMP latency
    guarantees, so each shard runs its events in key order at every job
    count.  At lookahead 0 the engine always runs one job, and a key may
    sort before its creator's. *)

type time = int
(** Simulated time in processor cycles. *)

type t
(** A simulator instance. *)

exception Late_delivery of { dst : int; fire : int; clock : int }
(** Raised (strict mode only) when a cross-shard event would fire
    before its destination shard's clock — a lookahead violation. *)

val create : unit -> t
(** [create ()] is a fresh simulator at time 0 with no events, one
    shard, and lookahead 0. *)

val make_sharded : t -> nshards:int -> lookahead:int -> unit
(** Repartition into [nshards] shards with a conservative [lookahead]
    window (the inter-SSMP LAN latency).  A no-op for the current
    parameters; resets the job count to 1.
    @raise Invalid_argument if events were already scheduled, if
    [nshards] is not in [1 .. Shardq.max_shards], or if
    [lookahead < 0]. *)

val set_on_event : t -> (shard:int -> now:int -> unit) option -> unit
(** Install a callback run immediately before each event on the
    executing domain (after clock/counters advance).  Used by the
    metrics sampler.  The callback must only touch state owned by
    [shard]; anything else breaks byte-identity across job counts. *)

val set_jobs : t -> int -> unit
(** Effective domain count for subsequent {!run}s, clamped to
    [1 .. nshards], and to 1 when the lookahead is 0 (a window needs a
    positive width).  [1] drains a single heap in key order
    on the calling domain; [>= 2] runs shards concurrently between
    lookahead barriers.  A no-op when the clamped count is unchanged.
    @raise Invalid_argument if the count would change while events are
    pending. *)

val set_strict : t -> bool -> unit
(** Strict mode: a cross-shard event merged after its destination's
    clock — a lookahead violation — raises {!Late_delivery} instead of
    being clamped and counted. *)

type running = private {
  mutable shard : int;  (** the executing shard; -1 outside an event *)
  mutable fire : int;
  mutable sched : int;
  mutable srcseq : int;  (** [src] and [seq], {!Shardq.pack}ed *)
}
(** The event a domain is executing and its key.  The observability
    layer copies the key into its records, three integers, so
    per-shard cells merge in key order.  The key is meaningful only
    while [shard >= 0]. *)

val running : unit -> running
(** This domain's record, one per domain, rewritten at every event. *)

val cur : unit -> int
(** Shard currently executing on this domain; -1 outside an event. *)

val now : t -> time
(** The executing shard's clock inside an event; from host code, the
    latest shard clock (0 before any event runs). *)

val at : t -> time -> (unit -> unit) -> unit
(** [at sim t f] schedules [f] on the executing shard (shard 0 from host
    code) at absolute time [max t clock], where [clock] is the
    scheduling shard's.  Scheduling in the past is clamped to the
    present rather than rejected: protocol handlers routinely complete
    work whose latency was accounted on a processor clock that lags
    simulated time.  Each clamp is counted in {!stats}. *)

val at_shard : t -> shard:int -> time -> (unit -> unit) -> unit
(** [at_shard sim ~shard t f] schedules [f] on an explicit shard —
    cross-SSMP message delivery and host-side seeding.  Under windowed
    execution a cross-shard call parks the event in the scheduling
    shard's outbox until the next window barrier.
    @raise Invalid_argument if [shard] is out of range. *)

val at_k : t -> time -> (time -> unit) -> unit
(** [at_k sim t k] is the timed form of {!at}: [k] runs with the
    event's fire time, so a callback that already exists needs no
    closure and the event allocates nothing.  The fire time is [t]
    unless a clamp moved it — past due at scheduling, or a lookahead
    violation at a window barrier — and then the clamped time. *)

val at_shard_k : t -> shard:int -> time -> (time -> unit) -> unit
(** The timed form of {!at_shard}; see {!at_k}. *)

val set_deliver : t -> (int -> time -> time) -> unit
(** The hook, one per simulator, that turns a message word ({!at_msg})
    and its arrival time into its handler's finish time, on the
    destination's shard. *)

val at_msg : t -> shard:int -> time -> msg:int -> (time -> unit) -> unit
(** [at_msg sim ~shard t ~msg k] is {!at_shard_k} for a message whose
    event carries the word [msg >= 0]: at arrival the engine queues [k]
    at the hook's finish time under the key {!at_k} would mint, as a
    closure over [msg] would, with no closure.  The arrival's heap entry
    becomes the continuation in place ({!Shardq.rekey_min}), so an
    arrival costs one sift and no write barrier.  [msg = -1] is a plain
    {!at_shard_k}. *)

val arrive : t -> msg:int -> time -> (time -> unit) -> unit
(** What an {!at_msg} event does at [t], for a transport that delivers
    from an event of its own (the LAN's fault path). *)

val after : t -> time -> (unit -> unit) -> unit
(** [after sim d f] is [at sim (now sim + d) f].  [d] must be [>= 0]. *)

val events_executed : t -> int
(** Total events executed since creation (throughput accounting). *)

val peak_pending : t -> int
(** High-water mark of pending events.  Windowed runs report the sum of
    per-shard peaks (an upper bound); this figure is host-/engine-
    sensitive and deliberately excluded from the determinism contract. *)

type stats = { s_executed : int; s_peak : int; s_clamped : int }

val stats : t -> stats
(** Execution counters: events executed, peak pending, and the number
    of past-due schedules clamped forward to the clock ([s_clamped]), so
    cross-shard delivery bugs surface as counted clamps. *)

type shard_stat = {
  st_id : int;
  st_executed : int;  (** events executed by this shard (deterministic) *)
  st_xsends : int;  (** cross-shard sends originated here (deterministic) *)
  st_clamped : int;  (** past-due schedules clamped on this shard *)
  st_peak : int;  (** per-shard heap high-water mark *)
  st_merges : int;  (** outbox messages merged into this shard *)
  st_stalls : int;  (** windows in which this shard executed nothing *)
  st_wall : float;  (** host seconds spent draining this shard *)
}

val shard_stats : t -> shard_stat array
(** One entry per shard.  [st_executed] and [st_xsends] are pure
    functions of the simulated program; the remaining fields depend on
    the job count and host and are excluded from the byte-identity
    contract. *)

val windows : t -> int
(** Lookahead windows opened (0 unless windowed runs happened). *)

val barrier_wall : t -> float
(** Host seconds the windowed coordinator spent at barriers. *)

val shard_executed : t -> int -> int
(** Events executed by one shard — shard-local, deterministic. *)

val shard_xsends : t -> int -> int
(** Cross-shard sends originated by one shard — shard-local,
    deterministic. *)

val run : t -> ?limit:int -> unit -> int
(** [run sim ()] executes events until none remain and returns the
    number executed by this call.  [limit] (default unlimited) bounds
    the count as a livelock guard.
    @raise Failure if [limit] is exhausted; the message carries the
    limit, events executed, the clock, and the pending count. *)
