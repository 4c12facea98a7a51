(** Online per-page sharing-pattern classifier and regime policy.

    The adaptive coherence layer watches the counters the directory
    fast path already maintains — readers and writers per
    invalidation epoch, upgrade and clean-reply rates, dominant-writer
    streaks — and classifies each page's sharing pattern at epoch
    boundaries.  The policy maps patterns onto one of three coherence
    regimes:

    - {!Rmw}: the paper's eager-RC multiple-writer protocol (twins,
      diffs, merge at the home).  The default; always safe.
    - {!Rsw}: single-writer.  A lone write copy is granted without a
      twin; it never diffs — the recall ships the whole page.  Skips
      all twinning/diffing work for pages with one writer at a time.
    - {!Rinv}: invalidate-on-read.  Read requests are granted write
      privilege immediately, so migratory data (read-modify-write under
      a lock, hopping between SSMPs) skips the upgrade round trip.

    Transitions form a lattice with {!Rmw} at the centre:
    [Rsw <-> Rmw <-> Rinv].  The policy never steps directly between
    the two specialised regimes; a page demoting out of one passes
    through {!Rmw} first, so a misclassification is never more than one
    epoch from the always-safe default.  Hysteresis: a switch requires
    the same pattern for [switch_streak] consecutive decision windows,
    so adversarial alternation never causes regime ping-pong.

    Everything here is a pure function of directory state — no host
    randomness, no wall-clock — so decisions are deterministic and
    byte-identical across engine job counts. *)

type regime = Rmw | Rsw | Rinv

val code : regime -> int
(** Stable wire/trace encoding: Rmw = 0, Rsw = 1, Rinv = 2. *)

val regime_name : regime -> string

val legal_edge : regime -> regime -> bool
(** [legal_edge a b] is true iff a page may switch from [a] to [b] in
    one decision: the lattice edges Rmw<->Rsw and Rmw<->Rinv. *)

type pattern =
  | Idle  (** no traffic this window *)
  | Read_mostly  (** readers only *)
  | Single_writer  (** one writing SSMP, no other readers *)
  | Producer_consumer  (** one writing SSMP plus readers *)
  | Migratory  (** write privilege hops between SSMPs *)
  | Multi_writer  (** concurrent writers: eager RC's home turf *)

val pattern_name : pattern -> string

val classify :
  readers:int ->
  writers:int ->
  wreq:int ->
  upg:int ->
  clean:int ->
  regime:regime ->
  pattern
(** Pure classification of one decision window.  [readers]/[writers]
    are distinct-SSMP counts, [wreq] write grants, [upg] upgrade
    notices, [clean] write copies recalled unmodified.  [regime] is the
    page's current regime (used to read Rinv evidence: a low clean rate
    under Rinv confirms the migratory guess). *)

val switch_streak : int
(** Consecutive same-pattern windows required before a regime switch. *)

val migrate_streak : int
(** Consecutive windows the same SSMP must dominate writing before the
    page's home migrates there. *)

(** Per-page decision state.  Window counters are bumped by the
    protocol downcall path and consumed (then reset) by {!decide}. *)
type page = {
  mutable regime : regime;
  w_readers : Mgs_util.Bitset.t;  (** SSMPs granted read copies *)
  w_writers : Mgs_util.Bitset.t;  (** SSMPs granted/holding write copies *)
  mutable w_rreq : int;
  mutable w_wreq : int;
  mutable w_upg : int;
  mutable w_clean : int;
  mutable dom : int;  (** candidate dominant writer SSMP, -1 if none *)
  mutable dom_streak : int;
  mutable last_pattern : pattern;
  mutable streak : int;  (** consecutive windows with [last_pattern] *)
}

val new_page : nssmps:int -> page

val reset_window : page -> unit
(** Clear the window counters (classifier inputs).  Keeps the regime,
    pattern streak and dominant-writer streak: those are protocol
    policy state, not statistics. *)

val decide : page -> (regime * regime) option
(** Run one decision: classify the completed window, update pattern and
    dominant-writer streaks, apply the switch policy, reset the window.
    Returns [Some (old, new)] when the regime changed. *)

val demote : page -> (regime * regime) option
(** Event-driven demotion out of {!Rsw} on direct evidence of a second
    concurrent writer; [Some (Rsw, Rmw)] when the page was in {!Rsw}. *)

val wants_migration : page -> bool
(** True when the dominant-writer streak justifies re-homing the page
    onto [page.dom]'s SSMP.  The caller still checks directory
    occupancy and that the home actually moves. *)

(** Machine-level adaptive state: per-SSMP home views and forwarding
    tables, so every lookup and update touches only the owning shard's
    row (shard-safe under the parallel engine). *)
type t = {
  views : int Mgs_util.Inttbl.t array;
      (** [views.(ssmp)]: vpn -> last home proc this SSMP heard from.
          Absent = the allocator's static home. *)
  fwd : int Mgs_util.Inttbl.t array;
      (** [fwd.(ssmp)]: vpn -> proc the home moved to, for requests
          that still arrive at a former home on this SSMP. *)
}

val create : nssmps:int -> t
