(** Causal span tracing.

    Deterministic transaction IDs are minted when a protocol operation
    (page fault, release, lock or barrier episode) starts; every piece
    of work done on the operation's behalf is recorded as a span — a
    timed interval with an engine label, linked to its parent span in
    the same transaction.  The simulator is deterministic, so the IDs,
    the spans, and every export are byte-identical run-to-run.

    Each span is one int row in a chunked {!Rows} cell, so memory is
    proportional to the spans kept and opening or closing one allocates
    nothing.  Storage is bounded by [capacity]; spans opened past it
    are counted as dropped and their close is a no-op, while the
    transaction ID keeps threading so surviving children stay attributed.

    A store created with [cells > 1] keeps one span store per shard
    (SSMP): each simulator domain writes only its own cell — nothing on
    the hot path is shared — and reads merge the cells by each span's
    stamp, the key of the event that opened it, whose order is the
    same at every job count.
    Span/transaction IDs are renumbered densely in that order at
    read/export time, so exports are byte-identical across job counts.
    Single-cell stores behave exactly as before. *)

type ctx = private int
(** A position in the span tree: transaction ID plus the enclosing
    span, packed into one immediate int. *)

val none : ctx

val txn_of : ctx -> int
(** The transaction, [-1] for none. *)

val sid_of : ctx -> int
(** The enclosing span's raw ID: [-1] for none, [-2] for a dropped one. *)

type span = {
  sid : int;  (** dense span ID, in stamp order *)
  parent : int;  (** parent span ID, [-1] for a transaction root *)
  txn : int;
  label : string;
  engine : Event.engine;
  t0 : int;
  mutable t1 : int;  (** [-1] while open *)
  vpn : int;
  src : int;
  dst : int;
  src_ssmp : int;
  dst_ssmp : int;
  words : int;
}

type t

val create : ?capacity:int -> ?cells:int -> unit -> t
(** Capacity defaults to 131072 spans total, below 2{^30} — divided
    among the cells (floor 64 per cell, never above the total), so
    memory does not scale with the shard count.  [cells] (default 1)
    is the shard count: pass the machine's SSMP count so each
    simulator domain writes its own cell. *)

val cells : t -> int

val stamp : t -> time:int -> Mgs_engine.Shardq.key
(** The merge-order stamp for a record made now: the executing event's
    key, or, from host code, a fresh key ordered by [time] and then
    host emission order, after every event of that instant. *)

val mint_txn : t -> int
(** Reserve a fresh transaction ID without opening a span. *)

val open_span :
  t ->
  parent:ctx ->
  time:int ->
  label:string ->
  engine:Event.engine ->
  ?vpn:int ->
  ?src:int ->
  ?dst:int ->
  ?src_ssmp:int ->
  ?dst_ssmp:int ->
  ?words:int ->
  unit ->
  ctx
(** Open a span beginning at [time].  With [parent = none] a fresh
    transaction is minted and the span becomes its root; otherwise the
    parent's transaction is inherited. *)

val open_span_x :
  t ->
  parent:ctx ->
  time:int ->
  label:string ->
  engine:Event.engine ->
  vpn:int ->
  src:int ->
  dst:int ->
  src_ssmp:int ->
  dst_ssmp:int ->
  words:int ->
  ctx
(** [open_span] with every field spelled out.  Supplying an optional
    argument allocates a [Some] box at the call site, so per-message
    paths use this variant ([-1] / [0] mark n/a). *)

val close : t -> ctx -> time:int -> unit
(** End the span.  Idempotent; a no-op on [none] or dropped contexts. *)

val current : t -> ctx
(** The ambient context: what the code running right now works on
    behalf of.  Installed around message handlers and restored by
    fibers after suspension. *)

val set_current : t -> ctx -> unit

val count : t -> int
(** Spans recorded. *)

val open_count : t -> int
(** Spans begun but not yet ended.  0 at quiescence — anything else is
    an orphaned transaction (a request whose reply never came). *)

val open_count_cell : t -> int -> int
(** Open spans in one cell — shard-local, safe to read from that
    shard's own event context (the metrics sampler's [spans.open]). *)

val dropped : t -> int

val txns : t -> int
(** Transactions minted. *)

val iter : t -> (span -> unit) -> unit
(** All recorded spans in stamp order with dense renumbered IDs
    (identical across job counts; for a single-cell store this is the
    raw emission order and raw IDs). *)

val fold_unordered :
  t -> init:'a -> ('a -> label:string -> parent:int -> t0:int -> t1:int -> 'a) -> 'a
(** Fold over every recorded span's label, parent, start and end in no
    particular order, without building the merged view {!iter}
    sorts and renumbers.  [parent] is a raw store ID: only its sign is
    portable ([-1] for a transaction root).  For order-free aggregates
    — sums, counts, sorted samples. *)

val txn_mapper : t -> int -> int
(** Map a raw transaction ID (as stamped on trace events) to its dense
    export ID.  [-1] maps to itself; a transaction none of whose spans
    survived maps to [-1].  Partially applied form is O(n log n) once;
    the returned closure is O(1) per call. *)

val open_labels : t -> string list
(** Labels of still-open spans (for diagnostics). *)

val engine_of_label : string -> Event.engine
(** The protocol engine a span label attributes to — the same
    classification the critical-path analyzer uses. *)

(** {1 Critical-path analysis} *)

type breakdown = {
  faults : int;  (** remote faults analyzed *)
  e2e : int;  (** summed end-to-end fault latency, cycles *)
  local : int;  (** faulting-side handler + fault-path work *)
  wire : int;  (** LAN transit: sender queueing + latency *)
  dma : int;  (** bulk page/diff transfer *)
  server : int;  (** home-side handler occupancy *)
  remote : int;  (** third-party invalidation / write-back *)
  queue : int;  (** waiting out a release epoch at the server *)
  residual : int;  (** end-to-end time covered by no span *)
}

val zero_breakdown : breakdown

val fault_breakdown : t -> breakdown
(** The paper's Table-4 decomposition, derived purely from finished
    spans: every transaction whose root is a fault that reached the
    home server is analyzed.  Each instant of the fault's end-to-end
    interval is charged to exactly one component (overlapping spans —
    e.g. a parallel invalidation fan-out — resolve by fixed priority),
    so the components plus [residual] sum to [e2e] exactly, and
    [residual / e2e] measures instrumentation coverage. *)

val coverage : breakdown -> float
(** Fraction of end-to-end fault time covered by spans; 1.0 when no
    faults were recorded. *)

(** {1 Export} *)

val json : t -> string
(** Span dump, schema ["mgs-spans-1"]. *)

val write_json : t -> out_channel -> unit

val chrome_section : Buffer.t -> t -> emit_sep:(unit -> unit) -> unit
(** Append Chrome [trace_event] async ('b'/'e') and flow ('s'/'f')
    events for every finished span; [emit_sep] is called before each
    event so the caller controls separators. *)
