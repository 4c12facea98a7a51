(** Typed metrics registry + simulated-clock sampler, sharded per SSMP.

    Counters, probes, and histograms register under a name plus
    optional labels (e.g. SSMP, engine).  Counter storage is per-cell
    (one cell per engine shard): increments land in the writing shard's
    cell, so nothing on the hot path is shared under the parallel
    engine, and exports merge the cells pointwise.

    Sampling runs on a fixed boundary grid (row k at simulated time
    [k * interval]): each cell's row is snapshotted by the first of its
    events to reach that boundary, back-filling crossed boundaries, so
    the merged time-series is byte-identical across engine job counts.
    Rows live in a bounded per-cell ring — the most recent window
    survives, older rows are counted as dropped.  Histograms are not
    sampled; they export as end-of-run summaries.

    The sampler is driven by the engine's per-event hook ({!on_event})
    plus a final {!sample} when the run ends. *)

type t

type counter

val create : ?interval:int -> ?max_samples:int -> ?cells:int -> unit -> t
(** Defaults: sample every 10000 cycles, keep 4096 samples (per cell),
    one cell.  Pass [cells] = the machine's SSMP count so each
    simulator domain writes its own cell. *)

val interval : t -> int

val cells : t -> int

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Register (or fetch) a monotone counter.  The full series name is
    [name{k=v,...}] with labels sorted.
    @raise Invalid_argument after sampling has started. *)

val incr : ?by:int -> counter -> unit
(** Increment in the calling shard's cell. *)

val counter_value : counter -> int
(** Sum over cells. *)

val histogram : t -> ?labels:(string * string) list -> string -> Hist.t

val observe : Hist.t -> int -> unit

val probe_cell : t -> ?labels:(string * string) list -> string -> (int -> float) -> unit
(** Register a per-cell probe: [read cell] is polled when cell [cell]
    samples, from that cell's own event context — it must read only
    state owned by that shard. *)

val columns : t -> string list
(** Series names in registration order (the CSV/JSON column order). *)

val on_event : t -> cell:int -> now:int -> unit
(** Pre-event hook from the engine: snapshot cell [cell] at every
    sampling boundary crossed since its previous event. *)

val tick : t -> now:int -> unit
(** [on_event] for cell 0 — host-side convenience. *)

val sample : t -> now:int -> unit
(** Fill every cell to the last crossed boundary, then snapshot every
    cell at exactly [now] (overwriting a row already at [now]).  The
    first row freezes the column set. *)

val samples : t -> (int * float array) list
(** Merged rows, oldest first, values in {!columns} order: the
    per-cell series summed pointwise at each sampling time. *)

val sample_count : t -> int

val dropped : t -> int
(** Rows evicted by the ring bound (max over cells). *)

val csv : t -> string
(** [time,series...] header plus one row per sample. *)

val json : t -> string
(** Schema ["mgs-metrics-1"]: column names, sample rows, and histogram
    summaries. *)

val write_json : t -> out_channel -> unit

val write_csv : t -> out_channel -> unit
