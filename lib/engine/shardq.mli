(** Event heap for the sharded engine: a binary min-heap over event
    keys.

    A key orders an event by [(fire, sched, src, seq)] and nothing
    else: fire time, then the creating shard's clock at creation, that
    shard's id, and its private counter.  Each field is a function of
    the creating shard's own history, so a shard that runs the same
    events in the same order mints the same keys at every job count.
    A local event sorts after the key of the event that created it, and
    a cross-shard event fires at least one lookahead after its
    creation, in a later window than its creator's; so each shard pops
    its events in key order at every job count and, by induction, runs
    the same events.  At zero lookahead, which always runs one job, a
    key may sort before its creator's (a zero-delay cross-shard event
    ties on [(fire, sched)] and wins on [src]); the one heap runs it
    next, and the order is still a function of the program.

    [own] names the shard that will execute the event — it is carried,
    not part of the order.

    A pending key carries its event's payload, a thunk or a timed
    callback that receives the fire time, so the heap keeps two arrays
    (keys and [own] shards) and an event whose callback exists costs one
    key.  {!pop_min} clears the payload: an executed key kept as an
    observability stamp holds only itself. *)

type key = private {
  k_fire : int;  (** absolute fire time *)
  k_sched : int;  (** scheduling shard's clock at creation *)
  k_src : int;  (** scheduling shard's id *)
  k_seq : int;  (** scheduling shard's private counter *)
  mutable k_fn : unit -> unit;  (** the thunk; {!nop} for a timed event *)
  mutable k_timed : int -> unit;  (** the timed callback; {!nop_timed} for a thunk *)
}

val no_parent : key
(** The empty-slot key: fills vacant heap and outbox slots and stands
    for "no event running".  It sorts before every real key. *)

val nop : unit -> unit
val nop_timed : int -> unit

val event :
  fire:int -> sched:int -> src:int -> seq:int -> (unit -> unit) -> (int -> unit) -> key
(** A key carrying its thunk and timed callback, one of them a no-op. *)

val key : fire:int -> sched:int -> src:int -> seq:int -> parent:key -> key
(** A key with no payload.  [parent] is ignored; it is kept for the
    frozen benchmark's heap micro-loop ([perfbench/micro.ml]), the one
    caller that still passes it, until that benchmark is next revised. *)

val refire : key -> fire:int -> key
(** The same key moved to a later fire time (lookahead-violation
    clamping at outbox flush). *)

val cmp_key : key -> key -> int
(** The total order above: four integer comparisons. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val min_fire : t -> int
(** Fire time of the earliest event, [max_int] when empty.  An int, not
    an option: the windowed drain reads it before every event. *)

val push : t -> key:key -> own:int -> (unit -> unit) -> unit
(** Loads the thunk into [key] and {!insert}s it. *)

val insert : t -> key:key -> own:int -> unit

exception Empty_queue

val pop_min : t -> unit -> unit
(** Removes the minimum element, clears its key's payload and returns
    its thunk; {!popped_key}, {!popped_own} and {!popped_timed} read
    the rest until the next pop.
    @raise Empty_queue when empty. *)

val popped_key : t -> key
val popped_fire : t -> int
val popped_own : t -> int
val popped_timed : t -> int -> unit
