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

    [own] names the shard that will execute the event — it is carried,
    not part of the order. *)

type key = private {
  k_fire : int;  (** absolute fire time *)
  k_sched : int;  (** scheduling shard's clock at creation *)
  k_src : int;  (** scheduling shard's id *)
  k_seq : int;  (** scheduling shard's private counter *)
  k_parent : key;  (** key of the creating event; {!no_parent} for roots *)
}

val no_parent : key
(** Sentinel parent for host-scheduled (root) events.  Roots sort
    before same-[(fire, sched)] events created during execution, as a
    global insertion counter does. *)

val key : fire:int -> sched:int -> src:int -> seq:int -> parent:key -> key

val refire : key -> fire:int -> key
(** The same key moved to a later fire time (lookahead-violation
    clamping at outbox flush). *)

val cmp_key : key -> key -> int
(** The canonical total order described above. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val min_fire : t -> int option
(** Fire time of the earliest event, if any. *)

val push : t -> key:key -> own:int -> (unit -> unit) -> unit

exception Empty_queue

val pop_min : t -> unit -> unit
(** Removes and returns the minimum element's thunk.  Its key is
    readable via {!popped_key} / {!popped_own} until the next pop.
    @raise Empty_queue when empty. *)

val popped_key : t -> key
val popped_fire : t -> int
val popped_own : t -> int
