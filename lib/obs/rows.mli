(** One cell of the chunked row store behind {!Trace}, {!Span} and
    {!Metrics}: rows of a fixed number of ints, the store's [width], in
    chunks of {!chunk_rows} rows, allocated as they first fill and never
    copied, so memory follows the rows kept and adding a row allocates
    nothing once its chunk exists.  An event and a span are twelve ints
    a row; a metrics sample is its time and one int per series.  Labels
    are interned per cell.  A stamped cell also keeps a merge-order
    stamp per row, {!stamp_width} integers in chunks of their own: the
    key [(fire, sched, srcseq)] of the event that made the row,
    [srcseq] being [src] and [seq] {!Mgs_engine.Shardq.pack}ed, so no
    row keeps anything alive.  Only the cell's own shard adds rows to
    it. *)

val chunk_rows : int

val stamp_width : int
(** Ints per stamp: three. *)

type t

val cur_cell : int -> int
(** The cell the running code writes in a store of [n] cells: the
    executing shard's, or cell 0 for host code. *)

val create : width:int -> capacity:int -> cells:int -> ring:bool -> t
(** One of [cells] cells of rows of [width] ints, sharing a budget of
    [capacity] rows: at least 64 rows per cell, never above the total.
    Cells of a multi-cell store are stamped.  When full, a [ring] cell
    overwrites its oldest row; any other cell drops new rows. *)

val add : t -> int
(** Reserve the next row and return its slot, or [-1] when a non-ring
    cell is full.  Field [f < width] of the row is
    [(chunk r slot).(base r slot + f)]. *)

val chunk : t -> int -> int array

val base : t -> int -> int

val get : t -> int -> int -> int

val set_stamp : t -> int -> fire:int -> sched:int -> srcseq:int -> unit
(** Stamp a row of a stamped cell. *)

val cmp_stamp : t -> int -> t -> int -> int
(** [cmp_stamp r1 s1 r2 s2] orders row [s1] of [r1] and row [s2] of
    [r2] by their stamps: the event key order. *)

val added : t -> int
(** Rows ever added; [dropped] of them were overwritten or refused. *)

val kept : t -> int

val dropped : t -> int

val truncate : t -> int -> unit
(** Keep the first [n] rows of a cell that never dropped one. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter r f] calls [f pos slot] for every kept row, oldest first. *)

val intern : t -> string -> int
(** The label's id in this cell, assigned on first sight. *)

val name : t -> int -> string
