(** Per-processor simulated state: a local cycle clock, a handler
    occupancy horizon, and the four runtime-breakdown buckets of the
    paper's Figures 6-12 (User, Lock, Barrier, MGS).

    Accounting contract: buckets are charged exactly when the clock
    advances, so for every processor the bucket totals always sum to its
    clock.  Protocol handlers executing on a processor (message
    interrupts) advance only the [busy_until] horizon; the application
    fiber folds those stolen cycles into its MGS bucket the next time it
    runs ({!sync_busy}) or resumes from a wait ({!resume_charge}).  This
    is the mechanism behind the paper's {e critical section dilation}:
    coherence handlers dilate whatever the application was doing. *)

type bucket = User | Lock | Barrier | Mgs

type t = private {
  id : int;
  mutable clock : Mgs_engine.Sim.time;  (** fiber-local virtual time *)
  mutable busy_until : Mgs_engine.Sim.time;  (** handler occupancy horizon *)
  buckets : int array;  (** cycles charged per bucket *)
  mutable finished_at : Mgs_engine.Sim.time;  (** set by [finish] *)
}

val create : int -> t

val advance : t -> bucket -> int -> unit
(** [advance cpu b n] moves the clock forward [n] cycles, charged to
    bucket [b].  [n >= 0]. *)

val catch_up_to : t -> bucket -> Mgs_engine.Sim.time -> unit
(** [catch_up_to cpu b t] advances the clock to [t] if it lags, charging
    the gap to [b]; no-op if [clock >= t]. *)

val sync_busy : t -> unit
(** Fold any handler occupancy beyond the clock into the MGS bucket:
    [catch_up_to cpu Mgs busy_until].  Called at every operation
    boundary of a running fiber. *)

val resume_charge : t -> bucket -> Mgs_engine.Sim.time -> unit
(** [resume_charge cpu b t] accounts for a blocked fiber resuming at
    time [t]: handler occupancy inside the wait window goes to MGS, the
    remainder of the wait to [b]. *)

val occupy : t -> at:Mgs_engine.Sim.time -> cost:int -> Mgs_engine.Sim.time
(** [occupy cpu ~at ~cost] runs a protocol handler on this processor:
    it begins at [max at busy_until], holds the processor for [cost]
    cycles, advances [busy_until], and returns the completion time.
    No bucket is charged here — the owning fiber absorbs the cycles via
    {!sync_busy} or {!resume_charge}. *)

val finish : t -> unit
(** Record the fiber's completion time (= current clock). *)

val bucket_cycles : t -> bucket -> int

val total_cycles : t -> int
