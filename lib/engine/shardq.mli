(** Event heap for the sharded engine: a binary min-heap over integer
    event keys, with each event's payload in a slab.

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

    [src] and [seq] travel packed in one int ({!pack}) that sorts like
    the pair.  The heap sifts [(fire, sched, slot)] triples in one int
    array and reads the slab only when [(fire, sched)] ties.  A slab
    slot holds the packed word, the owner shard (the one that will
    execute the event: carried, not part of the order), a message word
    (see {!Sim.at_msg}; [-1] for a plain event) and the payload, a thunk
    or a timed callback that receives the fire time, the other a
    no-op.  A slot is written at {!add} and cleared when its event is
    removed: an event allocates nothing, and once popped the heap
    reaches nothing of it.  A message's arrival becomes its
    continuation in place ({!rekey_min}): the slot and its callback
    stay, and only the key and message word change. *)

val max_shards : int
(** Shard ids below this fit in a packed word. *)

val max_seq : int
(** The largest counter value that fits in a packed word. *)

val pack : src:int -> seq:int -> int
(** [src] in the high bits, [seq] in the low: packed words compare like
    [(src, seq)] pairs.
    @raise Invalid_argument unless [0 <= src < max_shards] and
    [0 <= seq <= max_seq]. *)

type key = { k_fire : int; k_sched : int; k_src : int; k_seq : int }
(** A key as four fields, for callers that build one to {!push}. *)

val key : fire:int -> sched:int -> src:int -> seq:int -> parent:key -> key
(** [parent] is ignored.  It and {!no_parent} are kept for the frozen
    benchmark's heap micro-loop ([perfbench/micro.ml]), the one caller
    that passes them, until that benchmark is next revised. *)

val no_parent : key

val nop : unit -> unit
val nop_timed : int -> unit

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val min_fire : t -> int
(** Fire time of the earliest event, [max_int] when empty.  An int, not
    an option: the windowed drain reads it before every event. *)

val add :
  t -> fire:int -> sched:int -> srcseq:int -> own:int -> msg:int -> (unit -> unit) ->
  (int -> unit) -> unit
(** Queue an event keyed [(fire, sched, srcseq)], [srcseq] a {!pack}ed
    word, for shard [own], with its message word and its thunk and timed
    callback, one of them a no-op. *)

val push : t -> key:key -> own:int -> (unit -> unit) -> unit
(** {!add} of a thunk under a four-field key, with no message word. *)

exception Empty_queue

val peek : t -> int
(** Returns the minimum event's message word, and lets the [popped_*]
    functions read its key and owner until the next peek or pop; the
    event stays queued.
    @raise Empty_queue when empty. *)

val pop_min : t -> unit -> unit
(** Removes the minimum event, frees its slot and returns its thunk;
    {!take_timed} returns its timed callback.  The [popped_*] view is
    the last {!peek}'s: peek first to read the event's key.
    @raise Empty_queue when empty. *)

val rekey_min : t -> fire:int -> sched:int -> srcseq:int -> unit
(** Gives the minimum event the key [(fire, sched, srcseq)] and no
    message word, and sifts it to its place once; its slot, owner and
    payload stay.
    @raise Empty_queue when empty. *)

val take_timed : t -> int -> unit
(** The removed event's timed callback, which the heap then drops. *)

val popped_fire : t -> int
val popped_sched : t -> int
val popped_srcseq : t -> int
val popped_own : t -> int
