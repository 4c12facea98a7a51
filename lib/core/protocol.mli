(** The Local Client (paper Figure 4, Table 1 arcs 1-7) and the one
    dispatch point over the three coherence engines.

    {!fault} is the one fault path for MGS, HLRC and Ivy: it owns the
    entry charges, the mapping lock, the [fault] root span and
    [lc.fault] event, the local TLB fill, the BUSY fetch with its
    [fetch_wait], and delayed-update-queue logging (skipped under Ivy,
    which has no queue).  It matches on [State.protocol] only for the
    two steps the engines do differently: the write to a read copy
    ({!Proto.upgrade}, {!Proto_hlrc.upgrade}, {!Proto_ivy.drop_copy})
    and the home request.  The release and acquire hooks dispatch the
    same way. *)

val names : unit -> string list
(** The protocol names, sorted: what [--protocol] and sweep specs say. *)

val proto_of_name : string -> State.protocol
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val name_of : State.protocol -> string
(** Inverse of {!proto_of_name}. *)

val fault : State.t -> proc:int -> vpn:int -> write:bool -> unit
(** Handle a TLB fault by processor [proc] on page [vpn].  Fiber
    context; returns once the processor holds a TLB mapping of the
    required mode and the SSMP a suitable copy.  All time is charged to
    the MGS bucket of [proc]. *)

val release : State.t -> proc:int -> unit
(** Release-side flush of [proc]'s delayed updates (MGS: RELs and
    RACKs; HLRC: diffs and version acks; Ivy: nothing).  Fiber
    context. *)

val at_release : State.t -> proc:int -> notices:(int, int) Hashtbl.t -> unit
(** Called before a lock is handed over or a barrier combine is sent:
    {!release}, then under HLRC publish the SSMP's write notices into
    the synchronization object's [notices].  Fiber context. *)

val at_acquire : State.t -> proc:int -> notices:(int, int) Hashtbl.t -> unit
(** Called after a lock is obtained or a barrier releases: under HLRC,
    apply the incoming write notices (lazy invalidation); MGS and Ivy
    need nothing.  Fiber context. *)
