(** Event heap for the sharded engine: a binary min-heap over canonical
    genealogy keys.

    A key orders an event by [(fire, sched, src, seq)] with one
    refinement: when two events tie on [(fire, sched)] but were created
    by {e different} shards, the tie is broken by recursively comparing
    the keys of the events that created them.  That parent order is
    exactly what a global insertion counter encodes, so the canonical
    order reproduces [(time, scheduling order)] tie-breaking on one
    global clock in every case — including two shards scheduling onto
    a common destination at the same clock.

    Once an event has run, its key may be {e ranked} ({!rank}): its
    position in the canonical execution order replaces its ancestry.
    The canonical-global drain ({!Sim.run} at one job) ranks each key
    as it pops it, before the event runs, so a pending event's parent
    is ranked (a root's is {!no_parent}) and the tie above costs one
    integer comparison; the parent's own ancestors are no longer
    reachable through it.
    Windowed drains do not rank — ranks there would need a serial
    merge of the per-shard execution logs at every barrier — so their
    executed keys keep their parent links.

    [own] names the shard that will execute the event — it is carried,
    not part of the order.

    A pending key carries its event's payload, a thunk or a timed
    callback that receives the fire time, so the heap keeps two arrays
    (keys and [own] shards) and an event whose callback exists costs one
    key.  {!pop_min} clears the payload: an executed key kept as a
    parent or an observability stamp holds no closure. *)

type key = private {
  k_fire : int;  (** absolute fire time *)
  k_sched : int;  (** scheduling shard's clock at creation *)
  k_src : int;  (** scheduling shard's id *)
  mutable k_seq : int;  (** scheduling shard's private counter; the rank once ranked *)
  mutable k_parent : key;
      (** key of the creating event; {!no_parent} for roots; a
          self-referential sentinel once ranked *)
  mutable k_fn : unit -> unit;  (** the thunk; {!nop} for a timed event *)
  mutable k_timed : int -> unit;  (** the timed callback; {!nop_timed} for a thunk *)
}

val no_parent : key
(** Sentinel parent for host-scheduled (root) events.  Roots sort
    before same-[(fire, sched)] events created during execution, as a
    global insertion counter does. *)

val key : fire:int -> sched:int -> src:int -> seq:int -> parent:key -> key

val nop : unit -> unit
val nop_timed : int -> unit

val event :
  fire:int -> sched:int -> src:int -> seq:int -> parent:key -> (unit -> unit) -> (int -> unit) ->
  key
(** A key carrying its thunk and timed callback, one of them a no-op. *)

val refire : key -> fire:int -> key
(** The same key moved to a later fire time (lookahead-violation
    clamping at outbox flush). *)

val rank : key -> int -> unit
(** [rank k r] records that the event of [k] is the [r]-th to execute
    in canonical order: [r] replaces [k]'s [seq] and [k]'s parent
    becomes the ranked sentinel, dropping [k]'s ancestry.  Ranks must
    be assigned in execution order, and only while every key already
    executed is ranked too, since {!cmp_key} puts a ranked key before
    an unranked one that ties on [(fire, sched)]. *)

val cmp_key : key -> key -> int
(** The canonical total order described above.  Two ranked keys that
    tie on [(fire, sched)] compare by rank. *)

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

val take_all : t -> (key -> int -> unit) -> unit
(** [take_all q f] empties [q], calling [f key own] on each element in
    no particular order; the keys keep their payloads. *)

val popped_key : t -> key
val popped_fire : t -> int
val popped_own : t -> int
val popped_timed : t -> int -> unit
