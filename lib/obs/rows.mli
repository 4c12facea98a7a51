(** One cell of the chunked row store behind {!Trace} and {!Span}: rows
    of {!width} ints in chunks of {!chunk_rows} rows, allocated as they
    first fill and never copied, so memory follows the rows kept and
    adding a row allocates nothing once its chunk exists.  Labels are
    interned per cell; a stamped cell keeps one event key per row, the
    merge-order stamp, which holds only itself.
    Only the cell's own shard adds rows to it. *)

val chunk_rows : int

val width : int
(** Ints per row: an event and a span both have twelve fields. *)

type t

val cur_cell : int -> int
(** The cell the running code writes in a store of [n] cells: the
    executing shard's, or cell 0 for host code. *)

val create : capacity:int -> cells:int -> ring:bool -> t
(** One of [cells] cells sharing a budget of [capacity] rows: at least
    64 rows per cell, never above the total.  Cells of a multi-cell
    store are stamped.  When full, a [ring] cell overwrites its oldest
    row; any other cell drops new rows. *)

val add : t -> int
(** Reserve the next row and return its slot, or [-1] when a non-ring
    cell is full.  Field [f < width] of the row is
    [(chunk r slot).(base slot + f)]. *)

val chunk : t -> int -> int array

val base : int -> int

val get : t -> int -> int -> int

val set_key : t -> int -> Mgs_engine.Shardq.key -> unit

val key : t -> int -> Mgs_engine.Shardq.key

val added : t -> int
(** Rows ever added; [dropped] of them were overwritten or refused. *)

val kept : t -> int

val dropped : t -> int

val iter : t -> (int -> int -> unit) -> unit
(** [iter r f] calls [f pos slot] for every kept row, oldest first. *)

val intern : t -> string -> int
(** The label's id in this cell, assigned on first sight. *)

val name : t -> int -> string
