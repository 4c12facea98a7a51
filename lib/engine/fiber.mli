(** Cooperative fibers on top of the event queue.

    Each simulated processor runs its program as a fiber.  A fiber
    executes synchronously inside simulator events; when it must wait
    for simulated time to pass or for a protocol interaction, it
    suspends, handing its resumption thunk to whoever will eventually
    schedule it (a timer, a message handler, a lock release, ...).

    Implemented with OCaml 5 effect handlers, so fiber code is written
    in direct style. *)

type status = Running | Completed | Failed of exn

type t
(** Handle on a spawned fiber. *)

val spawn : Sim.t -> ?shard:int -> at:Sim.time -> name:string -> (unit -> unit) -> t
(** [spawn sim ~at ~name body] schedules [body] to start at time [at].
    [name] is used in error reports.  [shard] pins the fiber's first
    event to an explicit shard (its processor's SSMP); subsequent
    resumptions stay on whatever shard schedules them, which for
    SSMP-local work is the same one. *)

val status : t -> status

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] suspends the calling fiber.  [register] receives
    the resume thunk and must arrange for it to be invoked exactly once
    (typically by scheduling it with {!Sim.at} or parking it on a wait
    list).  Each suspension gets its own thunk, so a second call raises
    [Effect.Continuation_already_resumed] out of {!Sim.run}.  Must be
    called from fiber context.
    @raise Failure when called outside a fiber. *)

val sleep_until : Sim.t -> Sim.time -> unit
(** [sleep_until sim t] suspends the calling fiber and resumes it at
    simulated time [t] (clamped to now) on [sim], the simulator it was
    spawned on.  It performs a [Sleep t] effect whose handler was built
    at spawn, so a round trip allocates the effect, the continuation,
    one resume thunk and its event's key.
    @raise Failure when called outside a fiber. *)

val check_all_completed : t list -> unit
(** @raise Failure naming the first fiber that is not [Completed]
    (deadlocked fibers show up as [Running] after the event queue
    drains; failed fibers re-raise their exception). *)
