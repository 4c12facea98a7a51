(** Metrics registry + simulated-clock sampler, sharded per SSMP.

    A series is a per-cell probe: an int read, under a name plus
    optional labels (e.g. SSMP, engine), of state that cell's shard
    owns — in the machine, a counter it keeps anyway.  Each cell (one
    per engine shard) records its samples as int rows in a {!Rows} store
    of its own, so nothing on the hot path is shared under the parallel
    engine, and exports sum the cells row by row.

    Sampling runs on a boundary grid (row k at simulated time
    [k * interval]): each cell's row is snapshotted by the first of its
    events to reach that boundary, back-filling crossed boundaries, so
    the merged time-series is byte-identical across engine job counts.
    A cell holds at most [max_samples] rows and keeps the whole run: a
    full window folds, keeping its even boundary rows and doubling the
    interval.  Every cell folds at the same boundary index, so the
    cells stay on one grid, and the rows kept are those a sampler
    created at the final interval would take.  Histograms are not
    sampled; they export as end-of-run summaries.

    The sampler is driven by the engine's per-event hook ({!on_event})
    plus a final {!sample} when the run ends. *)

type t

val create : ?interval:int -> ?max_samples:int -> ?cells:int -> unit -> t
(** Defaults: sample every 10000 cycles to start with, hold at most
    4096 samples (per cell), one cell.  Pass [cells] = the machine's
    SSMP count so each simulator domain writes its own cell.
    @raise Invalid_argument if [interval < 1], [max_samples < 2] or
    [cells < 1]. *)

val interval : t -> int
(** The grid the rows are on: the creation interval, doubled at each
    fold (cell 0's; after a final {!sample}, every cell's). *)

val probe_cell : t -> ?labels:(string * string) list -> string -> (int -> int) -> unit
(** Register a series: [read cell] is polled when cell [cell] samples,
    from that cell's own event context — it must read only state owned
    by that shard.  The full series name is [name{k=v,...}] with labels
    sorted.
    @raise Invalid_argument on a duplicate name or once the columns are
    frozen. *)

val histogram : t -> ?labels:(string * string) list -> string -> Hist.t
(** Register (or fetch) an end-of-run histogram; record with
    {!Hist.add}. *)

val columns : t -> string list
(** Series names in registration order (the CSV/JSON column order). *)

val freeze : t -> unit
(** Freeze the column set and allocate every cell's store; the first
    row does it if nothing did before.  Cells may sample from several
    domains only once it has run, so a machine freezes its sampler
    before it runs. *)

val on_event : t -> cell:int -> now:int -> unit
(** Pre-event hook from the engine: snapshot cell [cell] at every
    sampling boundary crossed since its previous event. *)

val sample : t -> now:int -> unit
(** Fill every cell to the last crossed boundary, then snapshot every
    cell at exactly [now] (overwriting a row already at [now]).
    Afterwards every cell holds the same time grid. *)

val samples : t -> (int * int array) list
(** Merged rows, oldest first, values in {!columns} order: the
    per-cell rows summed row by row.
    @raise Invalid_argument if the cells' sample times differ, which a
    final {!sample} rules out. *)

val sample_count : t -> int

val dropped : t -> int
(** Rows folded away (max over cells; after a final {!sample}, every
    cell's). *)

val csv : t -> string
(** [time,series...] header plus one row per sample. *)

val json : t -> string
(** Schema ["mgs-metrics-1"]: the exported grid's {!interval}, the
    {!dropped} count, column names, sample rows, and histogram
    summaries. *)

val write_json : t -> out_channel -> unit

val write_csv : t -> out_channel -> unit
