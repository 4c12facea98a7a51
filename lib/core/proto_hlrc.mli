(** Home-based lazy release consistency (HLRC), the TreadMarks-lineage
    alternative the paper's related work points at ("MGS would benefit
    from these techniques").

    Like MGS, writers twin pages and log them in per-processor delayed
    update queues; unlike MGS's {e eager} protocol, a release only
    flushes diffs to the homes — there is {e no invalidation fan-out,
    no TLB shoot-down storm, and no multi-party epoch}.  Consistency
    information instead travels with the synchronization objects: each
    home keeps a version per page (bumped on every merged update), each
    SSMP keeps a monotone map of versions it has {e learned about}
    ([k_map]), and a lock or barrier carries the merged knowledge of
    its past holders.  At acquire time the SSMP merges the incoming
    notices and lazily invalidates any local copy that is now known to
    be stale (flushing its own unreleased writes first, so nothing is
    lost).  Faults always fetch from the home, whose master is current
    with respect to every release that happens-before the acquire.

    Selected with [Machine.config ~protocol:Protocol_hlrc].
    {!Protocol.fault} runs the shared fault steps and calls {!upgrade}
    and {!request} for the HLRC ones; {!Protocol.at_release} and
    {!Protocol.at_acquire} call [release_all]/[publish] and
    [apply_notices]. *)

val request :
  State.t -> proc:int -> vpn:int -> write:bool -> frame:Mgs_mem.Pagedata.page option -> unit
(** Ask the home for [vpn] and its version, carrying the SSMP's retired
    [frame] for the home to fill; the grant handler installs the copy
    and resumes the fiber parked in BUSY. *)

val upgrade : State.t -> proc:int -> State.centry -> unit
(** Twin the SSMP's read copy in place (multiple writers are allowed,
    so the home is not told).  Fiber context, mapping lock held. *)

val release_all : State.t -> proc:int -> unit
(** Flush every page in [proc]'s delayed update queue: compute diffs
    and send them to the homes, waiting for the version
    acknowledgements.  All flushes proceed in parallel (no epoch).
    Fiber context. *)

val publish : State.t -> proc:int -> into:(int, int) Hashtbl.t -> unit
(** Merge the SSMP's knowledge into a synchronization object's notice
    map (called after {!release_all} when handing the object over). *)

val apply_notices : State.t -> proc:int -> (int, int) Hashtbl.t -> unit
(** Merge a synchronization object's notice map into the SSMP's
    knowledge and invalidate local copies proven stale.  Stale {e
    dirty} copies flush their diff home before being dropped.  Fiber
    context. *)

val flush_page_fiber : State.t -> proc:int -> vpn:int -> unit
(** Flush one page's diff home under its mapping lock and wait for the
    acknowledgement; a clean page costs only the lock.  Fiber
    context. *)
