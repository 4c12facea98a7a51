(** The per-mapping shared-memory lock of the MGS Local Client (column
    "L" of Table 1), also used for the per-SSMP delayed update queue.

    Two kinds of owner coexist: application fibers, which block
    ({!acquire_fiber}), and protocol handlers, which must never block —
    they test the lock and queue a continuation if it is busy
    ({!acquire_k}), exactly as the paper's footnote 2 prescribes.
    Release hands the lock to the oldest waiter (fiber or handler)
    without a free window, so ownership transfers are FIFO and
    deterministic. *)

type t

val create : unit -> t

val held : t -> bool

val acquire_fiber : Mgs_engine.Sim.t -> t -> bool
(** Take the lock, parking the calling fiber until granted.  Returns
    [true] iff the fiber actually parked (so the caller knows whether to
    charge wait time). *)

val try_acquire : t -> bool
(** Take the lock if it is free, and say whether it was. *)

val acquire_k : Mgs_engine.Sim.t -> t -> (unit -> unit) -> unit
(** [acquire_k sim l k] runs [k] with the lock held — immediately if it
    is free, otherwise when ownership is handed over. *)

val release : Mgs_engine.Sim.t -> t -> unit
(** Hand the lock to the next waiter, or mark it free.
    @raise Invalid_argument if not held. *)
