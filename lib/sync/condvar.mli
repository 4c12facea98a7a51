(** Mesa-style condition variables layered on any lock kind.

    [wait] atomically-enough releases the associated lock and parks the
    calling fiber; [signal]/[broadcast] wake parked fibers, which then
    {e reacquire} the lock before [wait] returns.  Semantics are Mesa,
    not Hoare: the signaller keeps the lock, and a woken waiter races
    other contenders for it — always re-check the predicate in a loop:

    {[
      Locks.acquire ctx lock;
      while not (ready ()) do Condvar.wait ctx cv done;
      ...;
      Locks.release ctx lock
    ]}

    A {!Mgs.State.sync_hook} is registered at creation, so phase resets
    drop dead waiters and [assert_quiescent] fails if a fiber is left
    parked at the end of a run. *)

type t

val create : Mgs.Machine.t -> Locks.t -> t
(** [create m lock] makes a condition variable tied to [lock]; callers
    of {!wait}, {!signal}, and {!broadcast} must hold it. *)

val wait : Mgs.Api.ctx -> t -> unit
(** Release the lock, park until signalled, reacquire.  Waiting time is
    charged to the Lock bucket. *)

val signal : Mgs.Api.ctx -> t -> bool
(** Wake the oldest waiter; [false] if none was parked. *)

val broadcast : Mgs.Api.ctx -> t -> int
(** Wake every waiter; returns how many. *)

val waiters : t -> int
(** Fibers currently parked in {!wait}. *)

val waits : t -> int
(** Total {!wait} calls. *)

val wakeups : t -> int
(** Waits that have been woken (and gone on to reacquire). *)
