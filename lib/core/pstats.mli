(** Counters for MGS protocol and synchronization events.

    Each counter is a column: an index into the one [int array] row per
    SSMP that protocol and synchronization code bump through
    {!State.count}.  Every column is a commutative sum, so the column
    totals are the same at every engine job count.  A run's report
    carries them as the immutable snapshot {!t}. *)

(** {1 Columns}

    Each protocol column totals into the snapshot field of the same
    name; the sync columns total into [Report.lock_acquires],
    [lock_hits] and [barrier_episodes]. *)

val tlb_local_fills : int
val read_fetches : int
val write_fetches : int
val upgrades : int
val releases : int
val release_ops : int
val invals : int
val one_winvals : int
val pinvs : int
val diffs : int
val diff_words : int
val one_wdata : int
val one_wclean : int
val acks : int
val syncs : int
val sync_wait : int
val rel_wait : int
val fetch_wait : int
val upgrade_wait : int
val lock_msgs : int
val lock_handoffs : int
val lock_wait : int
val adapt_reclass : int
val adapt_migs : int
val adapt_fwds : int
val adapt_yields : int
val adapt_res_mw : int
val adapt_res_sw : int
val adapt_res_inv : int
val lock_acquires : int
val lock_hits : int
val barrier_episodes : int

(** {1 Gauges}

    Columns that count up and down, read only by the metrics sampler:
    client pages per state ({!State.set_pstate}), server entries in
    REL_IN_PROG ({!State.set_s_state}) and fibers parked in a lock.
    Each shard moves its own row, so a row can go negative when one
    shard opens what another closes; only the sum over rows is a
    count. *)

val pages_inv : int
val pages_read : int
val pages_write : int
val pages_busy : int
val rel_in_prog : int
val lock_waiters : int

val ncols : int
(** Row length: one past the last column. *)

(** {1 Snapshot} *)

type t = {
  tlb_local_fills : int;  (** faults satisfied by an existing local mapping *)
  read_fetches : int;  (** RREQ messages (inter-SSMP read misses) *)
  write_fetches : int;  (** WREQ messages (inter-SSMP write misses) *)
  upgrades : int;  (** UPGRADE operations (read->write privilege) *)
  releases : int;  (** REL messages (one per dirty page flushed) *)
  release_ops : int;  (** release operations that flushed >= 1 page *)
  invals : int;  (** INV messages sent by the server *)
  one_winvals : int;  (** 1WINV messages (single-writer optimization) *)
  pinvs : int;  (** PINV TLB-invalidation interrupts *)
  diffs : int;  (** DIFF messages *)
  diff_words : int;  (** modified words carried by all diffs *)
  one_wdata : int;  (** 1WDATA full-page write-backs *)
  one_wclean : int;  (** 1WCLEAN replies (retained page already in sync) *)
  acks : int;  (** ACK messages (read-copy invalidations) *)
  syncs : int;  (** SYNC messages (arc-12 deferred completions) *)
  sync_wait : int;  (** cycles spent awaiting SYNC acknowledgements *)
  rel_wait : int;  (** cycles releasers spent awaiting RACKs *)
  fetch_wait : int;  (** cycles faulting fibers spent awaiting page data *)
  upgrade_wait : int;  (** cycles spent awaiting UP_ACK *)
  net_retries : int;  (** LAN retransmission attempts (fault plans only) *)
  net_dups : int;  (** received copies discarded by transport dedup *)
  net_timeouts : int;  (** retransmission timer expiries *)
  lock_msgs : int;  (** lock-protocol messages (registry locks only) *)
  lock_handoffs : int;  (** lock ownership transfers between holders *)
  lock_wait : int;  (** cycles fibers spent blocked acquiring a lock *)
  adapt_reclass : int;  (** adaptive regime switches ([--adapt] only) *)
  adapt_migs : int;  (** home migrations to the dominant writer's SSMP *)
  adapt_fwds : int;  (** requests forwarded from a former home *)
  adapt_yields : int;  (** twinless write copies shipped whole on recall *)
  adapt_res_mw : int;  (** decision windows spent in the eager-RC regime *)
  adapt_res_sw : int;  (** decision windows spent in single-writer *)
  adapt_res_inv : int;  (** decision windows spent in invalidate-on-read *)
}

val snapshot : (int -> int) -> net_retries:int -> net_dups:int -> net_timeouts:int -> t
(** [snapshot total ~net_retries ~net_dups ~net_timeouts] reads every
    protocol column's total through [total]; the three transport
    counters live in the LAN and are passed in. *)

val pp : Format.formatter -> t -> unit
