(** FIFO parking lots for suspended fibers.

    A [Waitq.t] holds resume thunks of fibers blocked on some condition
    (a busy lock, a barrier, a page in REL_IN_PROG).  Waking schedules
    the resumes as fresh simulator events so the waker finishes its own
    event first. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val park : t -> unit
(** [park q] suspends the calling fiber onto [q] (FIFO order).  Must be
    called from fiber context. *)

val park_thunk : t -> (unit -> unit) -> unit
(** [park_thunk q k] enqueues an arbitrary continuation (used by
    message handlers, which are not fibers, to defer work). *)

val wake_one : Sim.t -> t -> bool
(** [wake_one sim q] schedules the oldest parked thunk now; [false] if
    the queue was empty. *)

val wake_all : Sim.t -> t -> int
(** [wake_all sim q] schedules every parked thunk now; returns how
    many. *)
