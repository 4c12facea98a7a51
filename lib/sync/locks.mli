(** Every lock algorithm behind one closed tag.

    A lock is built from a {!kind} with {!make}; [acquire], [release],
    [reset] and the counters dispatch with one [match] on it.  The
    harness, the benchmark driver, and [mgs_run --lock] turn a name into
    a kind once, with {!of_name}.  Five algorithms:

    - [Token] — the paper's token-based distributed lock (section 3.2).
      Each lock consists of a local lock on every SSMP plus a single
      global lock at the lock's home SSMP.  A token circulates among the
      local locks; acquires succeed without inter-SSMP communication
      whenever the local lock already owns the token (a {e lock hit},
      Figure 11), and communication happens only when consecutive
      acquires come from different SSMPs.  When a remote SSMP has
      requested the token, at most a bounded number of further local
      handoffs are allowed before the token is surrendered, bounding
      remote starvation while preserving the locality preference; the
      bound scales with the cluster size, as larger SSMPs have
      proportionally more local work to satisfy.  On a single-SSMP
      machine (C = P) the lock degenerates to a flat shared-memory lock
      standing in for the paper's P4 library.  The baseline every
      comparison is against.
    - [Tas] — test-and-set at the home processor with capped
      exponential backoff between attempts.  No queue, no fairness.
    - [Ticket] — centralised FIFO: the home assigns tickets and
      notifies the next holder on release (two hops per handoff).
    - [Mcs] — MCS queue lock over active messages: SWAP at the home
      appends to the queue, the home LINKs the requester to its
      predecessor, and releases hand off directly to the successor
      (one hop per handoff).  A releaser caught in the swap/link
      window parks until the link lands.
    - [Clh] — CLH queue lock: SWAP returns the predecessor's node,
      the requester WATCHes it where it lives, and release grants the
      watcher directly.  Release never blocks or messages unless a
      watcher is present.

    Release is a release-consistency point: every algorithm flushes the
    SSMP's delayed update queue before ownership moves, which is what
    makes critical sections {e dilate} under software coherence
    (section 5.2.1), and applies the write notices the lock carries at
    acquire — so HLRC runs correctly whichever lock a workload selects.
    Every algorithm pays the same active-message occupancy and LAN
    costs as the coherence engines.

    Each instance also keeps host-only instrumentation: handoff counts,
    handoff-gap statistics, retroactive [lock.handoff] spans when a
    trace is installed, and the [lock_wait]/[lock_handoffs] Pstats
    counters ([Token] excepted, so its runs stay byte-identical with
    earlier revisions).  {!make} registers a {!Mgs.State.sync_hook}, so
    [Machine.reset_stats] restores the lock between phases,
    [assert_quiescent] fails on leaked waiters, and the
    [sync.lock_waiters] gauge counts parked fibers. *)

type kind = Token | Tas | Ticket | Mcs | Clh

val all : kind list
(** Every kind, in name order. *)

val name_of : kind -> string

val names : unit -> string list
(** The lock names, sorted: what [--lock] and the lock tables say. *)

val of_name : string -> kind
(** Inverse of {!name_of}.
    @raise Invalid_argument on an unknown name, listing the known ones. *)

type t
(** A lock instance. *)

val make : Mgs.Machine.t -> ?home:int -> ?grant_bound:int -> kind -> t
(** [make m ~home kind] builds a lock whose arbitration state lives on
    SSMP [home] (default 0) and registers a sync hook on [m] for phase
    resets and quiescence checks.  [grant_bound] overrides the token
    lock's handoff budget per recall (default: half the cluster size,
    at least 1): 0 surrenders the token at the first recalled release
    (globally fair), larger values favor locality.
    @raise Invalid_argument if [home] is not an SSMP, if [grant_bound]
    is negative, or if it is given for a kind other than [Token]. *)

val acquire : Mgs.Api.ctx -> t -> unit
(** Block until the calling fiber holds the lock; waiting time is
    charged to the Lock bucket. *)

val release : Mgs.Api.ctx -> t -> unit
(** Flush release consistency, then pass the lock on.
    @raise Failure if the lock is not held (for [Token]: by the
    caller's SSMP). *)

val name : t -> string

val acquires : t -> int

val hits : t -> int
(** Acquires that completed without inter-SSMP communication: for
    [Token] the local lock owned the token; for the others the first
    attempt succeeded at a home on the caller's own SSMP. *)

val hit_ratio : t -> float
(** [hits / acquires]; 1.0 when never acquired. *)

val waiters : t -> int
(** Fibers currently blocked inside the lock. *)

val reset : t -> unit
(** Restore the just-created state and zero the instrumentation.
    Parked waiters are {e dropped}, not woken — only call between
    phases, when any parked fiber belongs to an abandoned run (e.g.
    after {!Mgs_net.Lan.Net_partition} ended it).  Without this, a
    token-lock waiter stranded by a partition leaves its request
    latched and the next acquirer deadlocks waiting for a token grant
    that never comes. *)

val handoffs : t -> int
(** Acquires whose previous holder was a different processor. *)

type gap_stats = { n : int; mean : float; max : int; cv : float }
(** Handoff gaps: cycles from a release to the next cross-processor
    acquire's completion.  [cv] is the coefficient of variation
    (stddev / mean) — the fairness figure: FIFO queue locks hand off at
    a steady cadence (low cv), the token lock alternates cheap local
    grants with expensive token recalls (high cv). *)

val gap_stats : t -> gap_stats
