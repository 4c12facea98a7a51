(* Online per-page sharing-pattern classifier and regime policy.  See
   adapt.mli for the regime lattice and determinism contract. *)

module Bitset = Mgs_util.Bitset

type regime = Rmw | Rsw | Rinv

let code = function Rmw -> 0 | Rsw -> 1 | Rinv -> 2
let regime_name = function Rmw -> "rmw" | Rsw -> "sw" | Rinv -> "inv"

(* The lattice keeps Rmw in the centre: a specialised regime always
   demotes to the safe default before the other specialisation can be
   tried, so one bad guess costs at most one window of Rmw traffic. *)
let legal_edge a b =
  match (a, b) with
  | Rmw, (Rsw | Rinv) | (Rsw | Rinv), Rmw -> true
  | _ -> false

type pattern =
  | Idle
  | Read_mostly
  | Single_writer
  | Producer_consumer
  | Migratory
  | Multi_writer

let pattern_name = function
  | Idle -> "idle"
  | Read_mostly -> "read-mostly"
  | Single_writer -> "single-writer"
  | Producer_consumer -> "producer-consumer"
  | Migratory -> "migratory"
  | Multi_writer -> "multi-writer"

(* Migratory evidence: several upgrade notices in one window mean write
   privilege is hopping (each hop faults read, then upgrades); under
   Rinv the confirmation is that granted write copies are actually
   written (a recall finding the copy clean means the eager write grant
   was wasted, so a high clean rate retracts the migratory call). *)
let classify ~readers ~writers ~wreq ~upg ~clean ~regime =
  if readers = 0 && writers = 0 then Idle
  else if writers = 0 then Read_mostly
  else if writers = 1 && readers = 0 then Single_writer
  else if writers = 1 then Producer_consumer
  else if
    (* migratory data is read and written by the same hopping SSMPs; a
       reader set larger than the writer set means genuine read
       sharing, which invalidate-on-read would serialise *)
    (upg >= 3 && readers <= 2 * writers) || (regime = Rinv && 2 * clean <= wreq)
  then Migratory
  else Multi_writer

let switch_streak = 2
let migrate_streak = 3

type page = {
  mutable regime : regime;
  w_readers : Bitset.t;
  w_writers : Bitset.t;
  mutable w_rreq : int;
  mutable w_wreq : int;
  mutable w_upg : int;
  mutable w_clean : int;
  mutable dom : int;
  mutable dom_streak : int;
  mutable last_pattern : pattern;
  mutable streak : int;
}

let new_page ~nssmps =
  {
    regime = Rmw;
    w_readers = Bitset.create nssmps;
    w_writers = Bitset.create nssmps;
    w_rreq = 0;
    w_wreq = 0;
    w_upg = 0;
    w_clean = 0;
    dom = -1;
    dom_streak = 0;
    last_pattern = Idle;
    streak = 0;
  }

let reset_window p =
  Bitset.clear p.w_readers;
  Bitset.clear p.w_writers;
  p.w_rreq <- 0;
  p.w_wreq <- 0;
  p.w_upg <- 0;
  p.w_clean <- 0

(* Producer-consumer pages keep the default regime: the lone writer
   would qualify for a twinless copy, but recalling one ships the whole
   page where a twin-and-diff run ships a few words, and PC pages are
   recalled by every consumer.  They still feed the dominant-writer
   streak, so their payoff is home migration, not a regime switch. *)
let target ~pattern ~regime =
  match pattern with
  | Idle -> regime
  | Read_mostly | Multi_writer | Producer_consumer -> Rmw
  | Single_writer -> Rsw
  | Migratory -> Rinv

let decide p =
  let readers = Bitset.cardinal p.w_readers
  and writers = Bitset.cardinal p.w_writers in
  let pat =
    classify ~readers ~writers ~wreq:p.w_wreq ~upg:p.w_upg ~clean:p.w_clean
      ~regime:p.regime
  in
  (if writers = 1 then begin
     let d = Bitset.next p.w_writers 0 (* the one writer *) in
     if d = p.dom then p.dom_streak <- p.dom_streak + 1
     else begin
       p.dom <- d;
       p.dom_streak <- 1
     end
   end
   else if pat <> Idle then begin
     p.dom <- -1;
     p.dom_streak <- 0
   end);
  (if pat = p.last_pattern then p.streak <- p.streak + 1
   else begin
     p.last_pattern <- pat;
     p.streak <- 1
   end);
  reset_window p;
  let tgt = target ~pattern:pat ~regime:p.regime in
  if tgt = p.regime || p.streak < switch_streak then None
  else begin
    (* one lattice step per decision: specialised regimes demote to Rmw
       before the other specialisation can be reached *)
    let nxt = if legal_edge p.regime tgt then tgt else Rmw in
    let old = p.regime in
    p.regime <- nxt;
    Some (old, nxt)
  end

(* Event-driven demotion: direct evidence (a second concurrent writer)
   ends the single-writer regime without waiting for the next window.
   Seeds the pattern streak with Multi_writer so the classifier cannot
   re-promote on the very next decision. *)
let demote p =
  if p.regime = Rsw then begin
    p.regime <- Rmw;
    p.last_pattern <- Multi_writer;
    p.streak <- 1;
    Some (Rsw, Rmw)
  end
  else None

let wants_migration p =
  p.dom >= 0 && p.dom_streak >= migrate_streak
  && (p.last_pattern = Single_writer || p.last_pattern = Producer_consumer)

type t = {
  views : (int, int) Hashtbl.t array;
  fwd : (int, int) Hashtbl.t array;
}

let create ~nssmps =
  {
    views = Array.init nssmps (fun _ -> Hashtbl.create 64);
    fwd = Array.init nssmps (fun _ -> Hashtbl.create 16);
  }
