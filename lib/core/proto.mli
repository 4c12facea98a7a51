(** The MGS multigrain shared-memory protocol (paper section 3, Figure 4,
    Tables 1-2).

    Three engines cooperate:

    - the {b Local Client} handles TLB faults on the faulting processor.
      Its shared steps (local fill, BUSY fetch, DUQ logging) are
      {!Protocol.fault}; this module supplies the two MGS-specific ones,
      {!request} (RREQ/WREQ to the home) and {!upgrade} (write privilege
      for a read copy through the Remote Client);
    - the {b Remote Client} runs on the processor owning an SSMP's copy:
      it performs page upgrades (twinning) and page invalidations —
      cleaning the page out of the SSMP's caches, interrupting every
      mapping processor with PINV, and answering the server with ACK,
      DIFF, or 1WDATA according to the copy's privilege and the
      single-writer optimization;
    - the {b Server} runs on the home processor: it replicates pages
      (RDAT/WDAT), tracks read/write directories per SSMP, and executes
      eager release operations (REL -> INV/1WINV fan-out ->
      diff merging -> RACK), queueing requests that arrive while a
      release is in progress.

    [request], [upgrade] and [release_all] are fiber-side entry points;
    everything else runs inside active-message handlers. *)

val request : State.t -> proc:int -> vpn:int -> write:bool -> unit
(** Arc 5: send [proc]'s RREQ / WREQ for [vpn] to the home.  The grant
    handler installs the copy and resumes the fiber parked in BUSY. *)

val upgrade : State.t -> proc:int -> State.centry -> ctx:Mgs_obs.Span.ctx -> unit
(** Arc 2: upgrade the SSMP's read copy in place through the Remote
    Client (UPGRADE, WNOTIFY to the home) and wait for UP_ACK, charging
    [upgrade_wait] and reinstalling [ctx].  Fiber context, mapping lock
    held. *)

val release_all : State.t -> proc:int -> unit
(** Perform a release operation for processor [proc]: flush the SSMP's
    delayed update queue, sending one REL per dirty page and waiting for
    each RACK (Table 1 arcs 8-10).  No-op on a single-SSMP machine.
    Must be called from fiber context. *)

val duq_pending : State.t -> proc:int -> int
(** Number of dirty pages currently queued in [proc]'s SSMP. *)

(** {2 Adaptive-coherence plumbing}

    Shared with the HLRC engine (which reuses the classification and
    home-migration halves of the adaptive layer).  All four are no-ops
    / identities unless the machine was configured with [adapt]. *)

val home_for : State.t -> ssmp:int -> int -> int
(** Where [ssmp]'s clients should address page [vpn]'s home: the SSMP's
    own view of the (possibly migrated) home, falling back to the
    allocator's static home.  A stale view costs one forwarding hop,
    never correctness. *)

val view_note : State.t -> ssmp:int -> vpn:int -> int -> unit
(** Record at [ssmp] that [vpn]'s home answered from the given
    processor.  Call only from handlers executing on [ssmp]'s shard. *)

val forward : State.t -> self:int -> vpn:int -> tag:string -> cost:int -> (int -> unit) -> bool
(** If [self]'s SSMP has a forwarding entry for [vpn] (the home moved
    away), repost the message toward the current home and return true;
    the caller must then leave the sentry alone.  Callers test [m.adapt]
    first, so the re-dispatch closure is built only under [--adapt]. *)

val adapt_move_home :
  State.t -> Mgs_cache.Adapt.t -> Mgs_cache.Adapt.page -> State.sentry -> unit
(** Migrate the page's home to the dominant writer's SSMP (same local
    slot), update forwarding and view tables, and post the MIGRATE
    custody message.  The caller has already verified the move is safe
    (no foreign directory members, no open epoch). *)
