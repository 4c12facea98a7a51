(** Plain-text table and bar-series rendering.

    The bench harness prints each reproduced paper table/figure as an
    aligned ASCII table (and figures additionally as horizontal stacked
    bars), so results can be eyeballed against the paper. *)

val render : header:string list -> rows:string list list -> string
(** [render ~header ~rows] is an aligned table with a rule under the
    header.  Ragged rows are padded with empty cells. *)

val print : header:string list -> rows:string list list -> unit
(** [print] is [render] followed by output to stdout. *)

val stacked_bars :
  title:string ->
  labels:string list ->
  series_names:string list ->
  values:float array array ->
  string
(** [stacked_bars ~title ~labels ~series_names ~values] renders one
    horizontal stacked bar per label.  [values.(i).(j)] is the magnitude
    of series [j] in bar [i]; bars are scaled so the longest fits 60
    characters.  Each series is drawn with a distinct fill
    character, with a legend line. *)

val fmt_cycles : float -> string
(** Human-readable cycle count, e.g. [12.3M], [4.56K], [321]. *)
