(** Online protocol invariant checker.

    Called by {!State.obs_emit} at every protocol transition; it needs
    no event trace, and with no checker attached the call costs one
    branch.  Its state is one slot per SSMP and each fact is checked on
    the shard that owns it, so a checked run keeps every engine domain.
    On server transitions (run by the page's current home): the
    outstanding-reply count is never negative and steps down by exactly
    one per collected reply within an epoch, the read and write
    directories are disjoint, every directory member has a frame
    processor outside REL_IN_PROG, and — with the shadow on — the
    merged master equals the page's shadow once an epoch ends with no
    surviving write copy.  On client transitions, for the executing
    SSMP's own entry: a BUSY page holds its mapping lock.

    These invariants are MGS's: attaching to an Ivy or HLRC machine
    installs no hook, and such a machine is judged only by {!finish}. *)

type t

val attach : State.t -> t
(** Attach a fresh checker to the machine.  The checker never creates
    or mutates protocol state, so it cannot perturb the execution. *)

val finish : t -> unit
(** End-of-run check (call once the run completes): when the machine
    has a span store ({!Machine.trace}: the trace, or an application's
    own spans), records a violation if any span in it is still open —
    an orphaned fault, release, synchronization or request episode.
    Without spans, such a transaction still fails the run as a
    deadlocked fiber or a machine that is not quiescent. *)

val count : t -> int
(** Total violations detected, including ones beyond the storage cap. *)

val pp : Format.formatter -> t -> unit
(** [invariants: ok] (under Ivy and HLRC, [invariants: none for ivy],
    plus [(span balance ok)] when spans were recorded), or the
    violation count and the first 64 violations, ordered by (simulated
    time, SSMP, record order) — the same listing at every job count. *)
