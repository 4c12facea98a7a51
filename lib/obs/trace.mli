(** Deterministic, bounded-memory event trace.

    Every emitted event is (1) written as one row of ints into a
    chunked {!Rows} cell used as a ring, with its tag interned per
    cell, and (2) folded into a per-tag latency histogram.  Memory is
    proportional to the events kept (at most the ring capacity) plus
    one histogram per distinct tag; once a chunk exists an emit
    allocates nothing.  {!Event.t} records are built only at export.

    A trace created with [cells > 1] keeps one ring and histogram table
    per shard (SSMP): each simulator domain writes only its own cell —
    nothing on the emit path is shared — and reads merge the cells by
    each event's stamp, the key [(fire, sched, src, seq)] of the
    simulator event that emitted it, kept as three integers per row
    ({!Rows}; [src] and [seq] share one).  Each field is a function of
    the emitting shard's own history, so the merged order is the same at
    every engine job count and every export is byte-identical across
    them.  At a positive lookahead it is the order the one heap runs
    events in; at lookahead 0 an event created by a zero-delay
    cross-shard event may sort before its creator, within one
    instant.
    Single-cell traces skip stamping. *)

type t

val create : ?capacity:int -> ?span_capacity:int -> ?cells:int -> unit -> t
(** Ring capacity defaults to 65536 events total — divided among the
    cells (floor 64 per cell, never above the total), so memory does
    not scale with the shard count; the span store to {!Span.create}'s
    default.  [cells]
    (default 1) is the shard count: pass the machine's SSMP count so
    each simulator domain writes its own cell. *)

val spans : t -> Span.t
(** The causal span collector that travels with this trace. *)

val emit :
  t -> time:int -> engine:Event.engine -> tag:string -> vpn:int -> src:int -> dst:int ->
  src_ssmp:int -> dst_ssmp:int -> words:int -> cost:int -> dur:int -> txn:int -> unit
(** Record one event, given by the fields of {!Event.t}. *)

val events : t -> Event.t list
(** Retained events in stamp order (oldest first), with
    transaction IDs mapped to their dense export values. *)

val emitted : t -> int
(** Total events ever emitted. *)

val retained : t -> int

val dropped : t -> int

val hist : t -> string -> Hist.t option
(** Latency histogram for one tag, merged across cells. *)

val histograms : t -> (string * Hist.t) list
(** All (tag, histogram) pairs, sorted by tag, merged across cells. *)

val chrome_json : t -> string
(** The retained events in Chrome [trace_event] JSON (the
    [chrome://tracing] / Perfetto format): one complete slice per
    event, [pid] = destination SSMP, [tid] = destination processor,
    timestamps in simulated cycles — plus a spans section (async
    begin/end per finished span and parent-to-child flow arrows).
    Multi-cell traces append one engine lane per shard: a process-name
    metadata record and a per-shard emitted-events counter. *)

val write_chrome : t -> out_channel -> unit

val pp_overflow_warning : Format.formatter -> t -> unit
(** A loud warning when the ring overflowed or the span store filled
    (a decomposition from a lossy trace is suspect, and a fault table
    from a full span store analyzes fewer faults than were fetched);
    prints nothing otherwise. *)

val pp_summary : Format.formatter -> t -> unit
(** Event counts plus the per-tag latency histograms, preceded by
    {!pp_overflow_warning} when history was lost. *)
