(** Intra-SSMP hardware cache coherence (timing model).

    One [t] per SSMP.  It models each member processor's cache
    (direct-mapped, line-grain) and a per-line MSI directory in the
    style of Alewife: a single-writer write-invalidate protocol whose
    directory holds a bounded number of hardware sharer pointers and
    traps to software (the LimitLESS scheme, "Remote Software" in
    Table 3) when a line's sharer set overflows.

    The model is timing-only: page frames hold the actual data (hardware
    keeps caches coherent with memory by construction), so [access]
    returns the stall cycles for an access and mutates only
    cache/directory metadata.  Latencies follow Table 3's classes:
    hit, local miss (11), remote clean miss (38), 2-party (42),
    3-party (63), +425 on a software-extended directory action.

    Line identity is virtual (page number x line offset): each SSMP has
    its own copy of a page, so line state never leaks across SSMPs.
    When the MGS protocol invalidates or ships a page it calls
    [flush_page] ({e page cleaning}, paper section 4.2.4). *)

type t

type kind = Read | Write

type stats = {
  mutable hits : int;
  mutable local_misses : int;
  mutable remote_misses : int;
  mutable misses_2party : int;
  mutable misses_3party : int;
  mutable software_extensions : int;
}

val create : Mgs_machine.Costs.t -> Mgs_mem.Geom.t -> cluster:int -> t
(** [create costs geom ~cluster] models the caches of one SSMP of
    [cluster] processors.  Processor arguments below are {e local}
    indices in [0 .. cluster-1].
    @raise Invalid_argument unless [cluster >= 1] and {!check_costs}
    accepts [costs]. *)

val check_costs : Mgs_machine.Costs.t -> unit
(** The check {!create} makes of its costs, without building a cache.
    @raise Invalid_argument unless [cache_line_slots] is a power of two:
    a line's slot is its number masked, not divided. *)

val access : t -> proc:int -> addr:int -> frame_owner:int -> kind:kind -> int
(** [access c ~proc ~addr ~frame_owner ~kind] simulates one load or
    store by local processor [proc] to word [addr] of a page whose
    frame is placed on local processor [frame_owner]; returns the stall
    cycles. *)

val flush_page : t -> vpn:int -> dirty:int ref -> int
(** [flush_page c ~vpn ~dirty] invalidates every cached line of page
    [vpn] from all member caches and clears its directory entries
    (page cleaning).  Returns the number of lines that were present in
    any cache; stores in [dirty] how many were modified. *)

val check_invariants : t -> unit
(** Verify internal consistency (used by the tests): every valid cache
    slot is registered in its line's directory entry with the matching
    state, and no line has both an owner and other sharers recorded as
    owners.  @raise Failure describing the first violation. *)

val stats : t -> stats
