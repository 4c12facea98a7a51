open Mgs.State

(* Every lock algorithm behind one closed tag: [make] builds an instance
   of a [kind], and [acquire] and [release] dispatch with one [match] on
   it.

   Every algorithm is home-based: a designated home holds the
   arbitration state (the token's global lock, the test-and-set word,
   the ticket counters, the queue tail) and fibers talk to it with
   active messages, paying the same occupancy and LAN costs as the
   coherence protocols.  The paper's token lock is the baseline.

   Host-side instrumentation (handoff gaps, wait cycles, the
   [lock.handoff] spans) lives in [acquire]/[release] below, outside
   the simulated machine: it never schedules events, charges cycles, or
   posts messages, so enabling it cannot move a single simulated
   cycle. *)

type kind = Token | Tas | Ticket | Mcs | Clh

(* in name order, so [names ()] comes out sorted *)
let all = [ Clh; Mcs; Tas; Ticket; Token ]

let name_of = function
  | Token -> "token"
  | Tas -> "tas"
  | Ticket -> "ticket"
  | Mcs -> "mcs"
  | Clh -> "clh"

let names () = List.map name_of all

let of_name name =
  match List.find_opt (fun k -> name_of k = name) all with
  | Some k -> k
  | None ->
    invalid_arg
      (Printf.sprintf "unknown lock %S (known: %s)" name (String.concat ", " (names ())))

(* --- what every kind shares ---------------------------------------- *)

(* Running handoff-gap moments.  An all-float record is stored unboxed,
   so an update allocates nothing. *)
type welford = { mutable w_mean : float; mutable w_m2 : float }

(* One instance: the fields every kind has, the host-side handoff
   instrumentation, and ['st], the kind's own state. *)
type 'st lock = {
  kind : kind;
  m : Mgs.State.t;
  home : int; (* processor holding the arbitration state *)
  notices : (int, int) Hashtbl.t; (* HLRC: write notices riding the lock *)
  st : 'st;
  mutable last_release : int; (* sim time of the last release, -1 *)
  mutable last_holder : int; (* proc of the last holder, -1 *)
  mutable handoffs : int;
  mutable gap_n : int; (* cross-holder handoff gaps: count, sum, max *)
  mutable gap_sum : int;
  mutable gap_max : int;
  gap_w : welford;
}

let msg m = count m Mgs.Pstats.lock_msgs 1

(* One-shot parking lot: hand [wake] to a message handler, then [park]
   the calling fiber until it fires. *)
let parker m =
  let q = Mgs_engine.Waitq.create () in
  let wake () = ignore (Mgs_engine.Waitq.wake_one m.sim q) in
  (q, wake)

(* Open an episode's transaction root, which the messages it triggers
   inherit, and emit its event. *)
let open_root t (ctx : Mgs.Api.ctx) ~label ~tag ~cost =
  let m = t.m in
  let root =
    span_open m ~parent:Span.none ~label ~engine:Mgs_obs.Event.Sync ~src:ctx.Mgs.Api.proc
      ~dst:t.home ()
  in
  span_set m root;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag ~src:ctx.Mgs.Api.proc ~dst:t.home ~cost ~vpn:(-1)
    ~words:0 ~dur:0;
  root

let close_root m root =
  span_close m root;
  span_set m Span.none

(* Acquire-side entry shared by every algorithm: charge the acquire
   cost, count the episode, and open its root. *)
let enter_acquire t (ctx : Mgs.Api.ctx) ~charge ~cost =
  let m = t.m in
  Cpu.sync_busy ctx.cpu;
  Cpu.advance ctx.cpu Lock charge;
  count m Mgs.Pstats.lock_acquires 1;
  open_root t ctx ~label:"sync.lock" ~tag:"sync.lock_acquire" ~cost

let count_hit t = count t.m Mgs.Pstats.lock_hits 1

(* Acquire-side consistency action: lazy protocols apply the write
   notices carried by the lock. *)
let exit_acquire t root ~proc =
  Mgs.Protocol.at_acquire t.m ~proc ~notices:t.notices;
  close_root t.m root

(* Release-side entry: flush per release consistency (this is what
   dilates critical sections; under HLRC it flushes diffs home and
   attaches write notices to the lock), then charge the release cost.
   The DUQ drain mints (and clears) its own transaction. *)
let enter_release t (ctx : Mgs.Api.ctx) ~charge =
  let m = t.m in
  let root = open_root t ctx ~label:"sync.unlock" ~tag:"sync.lock_release" ~cost:0 in
  Mgs.Protocol.at_release m ~proc:ctx.Mgs.Api.proc ~notices:t.notices;
  span_set m root;
  Cpu.advance ctx.cpu Lock charge;
  root

let home_local t proc =
  Topology.ssmp_of_proc t.m.topo proc = Topology.ssmp_of_proc t.m.topo t.home

(* Block the calling fiber in [wait], counted as one of its SSMP's
   waiters meanwhile, then charge the blocked time to the Lock bucket
   and restore the acquire's span. *)
let blocked_wait t (ctx : Mgs.Api.ctx) root wait =
  let m = t.m in
  count m Mgs.Pstats.lock_waiters 1;
  wait ();
  count m Mgs.Pstats.lock_waiters (-1);
  Cpu.resume_charge ctx.cpu Lock (Sim.now m.sim);
  span_set m root

(* The queue locks' entries: local costs on every machine shape, and a
   release folds handler occupancy before it opens its root (the token
   lock's release never did, and keeps its cycle counts). *)
let enter_acquire_q t ctx = enter_acquire t ctx ~charge:t.m.costs.sync.lock_local_acquire ~cost:0

let enter_release_q t (ctx : Mgs.Api.ctx) =
  Cpu.sync_busy ctx.cpu;
  enter_release t ctx ~charge:t.m.costs.sync.lock_local_release

(* --- the paper's token lock (section 3.2, Figure 11) ---------------- *)

(* A local lock per SSMP plus a global lock at the home SSMP; the token
   circulates among the local locks.  When a remote SSMP has requested
   the token, at most [grant_bound] further local handoffs are allowed
   before the token is surrendered. *)
module Token = struct
  type local = {
    mutable has_token : bool;
    mutable held : bool;
    waiters : Mgs_engine.Waitq.t;
    mutable requested : bool; (* LOCKREQ outstanding at the home *)
    mutable recall : bool; (* home asked this SSMP to surrender the token *)
    mutable grants_left : int; (* local handoffs allowed while recall pending *)
  }

  type state = {
    grant_bound : int;
    locals : local array;
    mutable token_at : int; (* home's view of the token owner *)
    mutable transfer : bool; (* a recall/grant cycle is in flight *)
    pending : int Queue.t; (* requester SSMPs queued at the home *)
  }

  (* The handoff budget per recall scales with the cluster size: larger
     SSMPs have proportionally more local work to satisfy. *)
  let local_grant_bound cluster = Int.max 1 (cluster / 2)

  let home_ssmp t = Topology.ssmp_of_proc t.m.topo t.home

  let ssmp_proc t s = Topology.first_proc_of_ssmp t.m.topo s

  let create (m : Mgs.Machine.t) ~home ~grant_bound =
    let nssmps = m.topo.Topology.nssmps in
    let bound =
      match grant_bound with
      | Some b ->
        if b < 0 then invalid_arg "Locks.make: grant_bound";
        b
      | None -> local_grant_bound (m.topo.Topology.nprocs / nssmps)
    in
    let locals =
      Array.init nssmps (fun s ->
          {
            has_token = s = home;
            held = false;
            waiters = Mgs_engine.Waitq.create ();
            requested = false;
            recall = false;
            grants_left = bound;
          })
    in
    { grant_bound = bound; locals; token_at = home; transfer = false; pending = Queue.create () }

  (* --- home-side global lock --- *)

  let rec try_recall t l =
    if (not l.transfer) && not (Queue.is_empty l.pending) then begin
      l.transfer <- true;
      let owner = l.token_at in
      Am.post t.m.am ~tag:"LK_RECALL" ~src:t.home ~dst:(ssmp_proc t owner) ~words:0
        ~cost:t.m.costs.sync.lock_local_acquire (fun _t -> on_recall t l owner)
    end

  and on_recall t l s =
    let loc = l.locals.(s) in
    loc.recall <- true;
    loc.grants_left <- l.grant_bound;
    if not loc.held then surrender t l s

  (* Give the token back to the home so it can be granted onward.  Any
     fibers still parked locally are covered by a fresh LOCKREQ. *)
  and surrender t l s =
    let loc = l.locals.(s) in
    assert (loc.has_token && not loc.held);
    loc.has_token <- false;
    loc.recall <- false;
    if not (Mgs_engine.Waitq.is_empty loc.waiters) && not loc.requested then begin
      loc.requested <- true;
      Am.post t.m.am ~tag:"LK_REQ" ~src:(ssmp_proc t s) ~dst:t.home ~words:0
        ~cost:t.m.costs.sync.lock_local_acquire (fun _t -> on_lockreq t l s)
    end;
    Am.post t.m.am ~tag:"LK_TOKREL" ~src:(ssmp_proc t s) ~dst:t.home ~words:0
      ~cost:t.m.costs.sync.lock_local_acquire (fun _t -> on_token_returned t l)

  and on_token_returned t l =
    match Queue.take_opt l.pending with
    | None ->
      (* Nobody wants it anymore: park the token at the home SSMP. *)
      let h = home_ssmp t in
      l.token_at <- h;
      l.transfer <- false;
      l.locals.(h).has_token <- true;
      grant_local t l h
    | Some next ->
      l.token_at <- next;
      l.transfer <- false;
      Am.post t.m.am ~tag:"LK_TOKEN" ~src:t.home ~dst:(ssmp_proc t next) ~words:0
        ~cost:t.m.costs.sync.lock_local_acquire (fun _t ->
          let loc = l.locals.(next) in
          loc.has_token <- true;
          loc.requested <- false;
          loc.recall <- false;
          loc.grants_left <- l.grant_bound;
          grant_local t l next);
      try_recall t l

  and on_lockreq t l s =
    if l.token_at = s && (not l.transfer) && Queue.is_empty l.pending then
      (* Crossed a grant already in flight to [s]; the local grant path
         serves the requester. *)
      ()
    else begin
      Queue.add s l.pending;
      try_recall t l
    end

  (* Hand the (free) local lock to the oldest parked fiber, if any. *)
  and grant_local t l s =
    let loc = l.locals.(s) in
    if (not loc.held) && not (Mgs_engine.Waitq.is_empty loc.waiters) then begin
      loc.held <- true;
      ignore (Mgs_engine.Waitq.wake_one t.m.sim loc.waiters)
    end

  (* --- fiber-side local lock --- *)

  (* On a single-SSMP machine (C = P) the lock degenerates to a flat
     shared-memory lock standing in for the paper's P4 library. *)
  let charge m ~local = if Topology.single_ssmp m.topo then m.costs.sync.flat_lock else local

  let acquire (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let proc = ctx.Mgs.Api.proc in
    let s = Topology.ssmp_of_proc m.topo proc in
    let loc = l.locals.(s) in
    let root =
      enter_acquire t ctx
        ~charge:(charge m ~local:m.costs.sync.lock_local_acquire)
        ~cost:(if loc.has_token then 1 else 0)
    in
    if loc.has_token then begin
      (* a lock hit: no inter-SSMP communication *)
      count_hit t;
      if not loc.held then loc.held <- true
      else
        (* Parked fibers are woken only by ownership transfer. *)
        blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park loc.waiters)
    end
    else begin
      if not loc.requested then begin
        loc.requested <- true;
        Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
        Am.post m.am ~tag:"LK_REQ" ~src:proc ~dst:t.home ~words:0
          ~cost:m.costs.sync.lock_local_acquire (fun _t -> on_lockreq t l s)
      end;
      blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park loc.waiters)
    end;
    exit_acquire t root ~proc

  let release (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let s = Topology.ssmp_of_proc m.topo ctx.Mgs.Api.proc in
    let loc = l.locals.(s) in
    if not loc.held then failwith "Locks(token): release while not held by this SSMP";
    let root = enter_release t ctx ~charge:(charge m ~local:m.costs.sync.lock_local_release) in
    if Mgs_engine.Waitq.is_empty loc.waiters then begin
      loc.held <- false;
      if loc.recall then surrender t l s
    end
    else if loc.recall && loc.grants_left <= 0 then begin
      (* Fairness bound: stop handing off locally, let the token go. *)
      loc.held <- false;
      surrender t l s
    end
    else begin
      if loc.recall then loc.grants_left <- loc.grants_left - 1;
      (* Direct handoff: [held] stays true, the woken fiber owns it. *)
      ignore (Mgs_engine.Waitq.wake_one m.sim loc.waiters)
    end;
    close_root m root
end

(* --- test-and-set with exponential backoff ------------------------- *)

(* The simplest contender: fire a TAS message at the home, and on
   failure sleep for an exponentially growing (capped) interval before
   trying again.  No queue, no fairness — the point of comparison for
   the queue locks below. *)
module Tas = struct
  type state = { mutable held : bool }

  (* Backoff base ~ one LAN round trip; capped so a long wait never
     over-sleeps past a free lock by more than the cap. *)
  let backoff m attempt =
    let base = Int.max 1 (2 * m.costs.lan.latency) in
    base lsl Int.min (attempt - 1) 5

  let acquire (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let cpu = ctx.cpu in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire_q t ctx in
    let attempt = ref 0 in
    let won = ref false in
    while not !won do
      incr attempt;
      Cpu.advance cpu Lock m.costs.proto.msg_send;
      msg m;
      let q, wake = parker m in
      let granted = ref false in
      Am.post m.am ~tag:"TAS" ~src:proc ~dst:t.home ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t ->
          if not l.held then begin
            l.held <- true;
            granted := true
          end;
          msg m;
          Am.post m.am ~tag:"TAS_ACK" ~src:t.home ~dst:proc ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t -> wake ()));
      blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park q);
      if !granted then won := true
      else
        (* back off in simulated time, charged to the Lock bucket *)
        blocked_wait t ctx root (fun () ->
            Mgs_engine.Fiber.sleep_until m.sim (Sim.now m.sim + backoff m !attempt))
    done;
    if !attempt = 1 && home_local t proc then count_hit t;
    exit_acquire t root ~proc

  let release (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    if not l.held then failwith "Locks(tas): release of a free lock";
    let root = enter_release_q t ctx in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    Am.post m.am ~tag:"TAS_REL" ~src:ctx.Mgs.Api.proc ~dst:t.home ~words:0
      ~cost:m.costs.sync.lock_local_release (fun _t -> l.held <- false);
    close_root m root
end

(* --- ticket lock ---------------------------------------------------- *)

(* Centralised FIFO: the home hands out tickets and notifies the next
   ticket holder on every release.  Two message hops per handoff
   (holder -> home -> next), perfectly fair. *)
module Ticket = struct
  type state = {
    mutable next_ticket : int;
    mutable now_serving : int;
    waiting : (unit -> unit) Queue.t;
        (* grants of the tickets above [now_serving], oldest first: the
           home parks each one as it assigns it, so a release serves the
           head *)
    mutable held : bool;
  }

  let acquire (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire_q t ctx in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    let q, wake = parker m in
    let immediate = ref false in
    let grant () =
      msg m;
      Am.post m.am ~tag:"TKT_GRANT" ~src:t.home ~dst:proc ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t ->
          l.held <- true;
          wake ())
    in
    Am.post m.am ~tag:"TKT_REQ" ~src:proc ~dst:t.home ~words:0
      ~cost:m.costs.sync.lock_local_acquire (fun _t ->
        let ticket = l.next_ticket in
        l.next_ticket <- ticket + 1;
        if ticket = l.now_serving then begin
          immediate := true;
          grant ()
        end
        else Queue.add grant l.waiting);
    blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park q);
    if !immediate && home_local t proc then count_hit t;
    exit_acquire t root ~proc

  let release (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    if not l.held then failwith "Locks(ticket): release of a free lock";
    l.held <- false;
    let root = enter_release_q t ctx in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    Am.post m.am ~tag:"TKT_REL" ~src:ctx.Mgs.Api.proc ~dst:t.home ~words:0
      ~cost:m.costs.sync.lock_local_release (fun _t ->
        l.now_serving <- l.now_serving + 1;
        match Queue.take_opt l.waiting with Some grant -> grant () | None -> ());
    close_root m root
end

(* A queue node is a record that the closures of its acquire and
   release hold, so nothing looks a node up: its fields are touched
   only on its owner's shard or in message order, and the queue tail
   only at the home.  A node holds closures, so the home compares nodes
   with [==]. *)

(* --- MCS queue lock ------------------------------------------------- *)

(* Distributed FIFO queue: a SWAP at the home appends the requester to
   the queue; the home LINKs it to its predecessor, and the predecessor
   hands the lock off {e directly} to its successor on release — one
   hop per handoff, independent of contention.  A releaser that finds
   no successor asks the home; if a successor swapped in but its LINK
   has not landed yet (the MCS "CAS failed" window), the release parks
   until the link arrives. *)
module Mcs = struct
  type node = {
    owner : int; (* proc waiting on (or holding via) this node *)
    mutable next : node option; (* successor, once linked *)
    wake : unit -> unit; (* resume the owner's parked fiber *)
    mutable rel_parked : (node -> unit) option; (* release awaiting link *)
  }

  type state = {
    mutable tail : node option; (* home's view of the queue tail *)
    mutable holder : node option; (* the current holder's node *)
  }

  let acquire (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire_q t ctx in
    let q, wake = parker m in
    let me = { owner = proc; next = None; wake; rel_parked = None } in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    let free = ref false in
    Am.post m.am ~tag:"MCS_SWAP" ~src:proc ~dst:t.home ~words:0
      ~cost:m.costs.sync.lock_local_acquire (fun _t ->
        let prev = l.tail in
        l.tail <- Some me;
        match prev with
        | None ->
          free := true;
          msg m;
          Am.post m.am ~tag:"MCS_GRANT" ~src:t.home ~dst:proc ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t -> wake ())
        | Some pred ->
          msg m;
          Am.post m.am ~tag:"MCS_LINK" ~src:t.home ~dst:pred.owner ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t ->
              pred.next <- Some me;
              match pred.rel_parked with
              | Some k ->
                pred.rel_parked <- None;
                k me
              | None -> ()));
    blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park q);
    l.holder <- Some me;
    if !free && home_local t proc then count_hit t;
    exit_acquire t root ~proc

  let release (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let proc = ctx.Mgs.Api.proc in
    let me =
      match l.holder with Some n -> n | None -> failwith "Locks(mcs): release of a free lock"
    in
    l.holder <- None;
    let root = enter_release_q t ctx in
    (* Direct handoff: one message from the old holder to the new. *)
    let handoff succ =
      msg m;
      Am.post m.am ~tag:"MCS_HANDOFF" ~src:proc ~dst:succ.owner ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t -> succ.wake ())
    in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    (match me.next with
    | Some succ -> handoff succ
    | None ->
      (* No known successor: swap the tail back at the home. *)
      msg m;
      let q, wake = parker m in
      let pass succ =
        handoff succ;
        wake ()
      in
      Am.post m.am ~tag:"MCS_SWAPREL" ~src:proc ~dst:t.home ~words:0
        ~cost:m.costs.sync.lock_local_release (fun _t ->
          match l.tail with
          | Some n when n == me ->
            l.tail <- None;
            msg m;
            Am.post m.am ~tag:"MCS_RELOK" ~src:t.home ~dst:proc ~words:0
              ~cost:m.costs.sync.lock_local_release (fun _t -> wake ())
          | _ ->
            (* Someone swapped in behind us; wait for their LINK. *)
            msg m;
            Am.post m.am ~tag:"MCS_RELWAIT" ~src:t.home ~dst:proc ~words:0
              ~cost:m.costs.sync.lock_local_release (fun _t ->
                match me.next with
                | Some succ -> pass succ
                | None -> me.rel_parked <- Some pass));
      blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park q));
    close_root m root
end

(* --- CLH queue lock ------------------------------------------------- *)

(* Implicit queue through predecessor nodes: a SWAP at the home returns
   the predecessor's node; the requester WATCHes that node where it
   lives, and the predecessor's release grants the watcher directly.
   Unlike MCS the release never blocks — the released node persists
   until its successor consumes it, so a late WATCH simply finds
   [released] already set.  Every acquire makes its own node, so a
   processor can have one node per outstanding acquire. *)
module Clh = struct
  type node = {
    owner : int; (* proc whose SSMP hosts this node *)
    mutable released : bool;
    mutable watcher : (unit -> unit) option; (* successor's grant *)
  }

  type state = {
    mutable tail : node; (* first a released sentinel owned by the home *)
    mutable holder : node option; (* the current holder's node *)
  }

  let acquire (ctx : Mgs.Api.ctx) t l =
    let m = t.m in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire_q t ctx in
    let me = { owner = proc; released = false; watcher = None } in
    let q, wake = parker m in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    let free = ref false in
    Am.post m.am ~tag:"CLH_SWAP" ~src:proc ~dst:t.home ~words:0
      ~cost:m.costs.sync.lock_local_acquire (fun _t ->
        let pred = l.tail in
        l.tail <- me;
        let grant () =
          msg m;
          Am.post m.am ~tag:"CLH_GRANT" ~src:pred.owner ~dst:proc ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t -> wake ())
        in
        (* watch the predecessor's node where it lives *)
        msg m;
        Am.post m.am ~tag:"CLH_WATCH" ~src:t.home ~dst:pred.owner ~words:0
          ~cost:m.costs.sync.lock_local_acquire (fun _t ->
            if pred.released then begin
              free := true;
              grant ()
            end
            else pred.watcher <- Some grant));
    blocked_wait t ctx root (fun () -> Mgs_engine.Waitq.park q);
    l.holder <- Some me;
    if !free && home_local t proc then count_hit t;
    exit_acquire t root ~proc

  let release (ctx : Mgs.Api.ctx) t l =
    let me =
      match l.holder with Some n -> n | None -> failwith "Locks(clh): release of a free lock"
    in
    l.holder <- None;
    let root = enter_release_q t ctx in
    me.released <- true;
    (match me.watcher with
    | Some grant ->
      me.watcher <- None;
      grant ()
    | None -> ());
    close_root t.m root
end

(* --- one instance, one dispatch ------------------------------------- *)

type state =
  | Token_st of Token.state
  | Tas_st of Tas.state
  | Ticket_st of Ticket.state
  | Mcs_st of Mcs.state
  | Clh_st of Clh.state

type t = state lock

let make (m : Mgs.Machine.t) ?(home = 0) ?grant_bound kind =
  let nssmps = m.topo.Topology.nssmps in
  if home < 0 || home >= nssmps then invalid_arg "Locks.make: home";
  (match (kind, grant_bound) with
  | Token, _ | _, None -> ()
  | (Tas | Ticket | Mcs | Clh), Some _ ->
    invalid_arg
      (Printf.sprintf "Locks.make: grant_bound applies to the token lock, not %s"
         (name_of kind)));
  let home_proc = Topology.first_proc_of_ssmp m.topo home in
  let st =
    match kind with
    | Token -> Token_st (Token.create m ~home ~grant_bound)
    | Tas -> Tas_st { held = false }
    | Ticket ->
      Ticket_st { next_ticket = 0; now_serving = 0; waiting = Queue.create (); held = false }
    | Mcs -> Mcs_st { tail = None; holder = None }
    | Clh ->
      (* sentinel: an already-released node owned by the home *)
      Clh_st { tail = { owner = home_proc; released = true; watcher = None }; holder = None }
  in
  {
    kind;
    m;
    home = home_proc;
    notices = Hashtbl.create 64;
    st;
    last_release = -1;
    last_holder = -1;
    handoffs = 0;
    gap_n = 0;
    gap_sum = 0;
    gap_max = 0;
    gap_w = { w_mean = 0.; w_m2 = 0. };
  }

let add_gap t g =
  t.gap_n <- t.gap_n + 1;
  t.gap_sum <- t.gap_sum + g;
  if g > t.gap_max then t.gap_max <- g;
  let w = t.gap_w in
  let x = float_of_int g in
  let d = x -. w.w_mean in
  w.w_mean <- w.w_mean +. (d /. float_of_int t.gap_n);
  w.w_m2 <- w.w_m2 +. (d *. (x -. w.w_mean))

let acquire (ctx : Mgs.Api.ctx) t =
  let m = t.m in
  let t0 = Sim.now m.sim in
  (match t.st with
  | Token_st l -> Token.acquire ctx t l
  | Tas_st l -> Tas.acquire ctx t l
  | Ticket_st l -> Ticket.acquire ctx t l
  | Mcs_st l -> Mcs.acquire ctx t l
  | Clh_st l -> Clh.acquire ctx t l);
  let t1 = Sim.now m.sim in
  let proc = ctx.Mgs.Api.proc in
  (* Host-side accounting only below this line: nothing here may post a
     message, charge a cpu, or schedule an event.  The token lock keeps
     out of the [lock_wait]/[lock_handoffs] counters, so its reports
     stay byte-identical with the revisions before them. *)
  let counted = match t.kind with Token -> false | Tas | Ticket | Mcs | Clh -> true in
  if counted then count m Mgs.Pstats.lock_wait (t1 - t0);
  if t.last_holder >= 0 && t.last_holder <> proc then begin
    t.handoffs <- t.handoffs + 1;
    if counted then count m Mgs.Pstats.lock_handoffs 1;
    if t.last_release >= 0 && t1 >= t.last_release then begin
      add_gap t (t1 - t.last_release);
      (* Retroactive handoff span: the lock was in flight from the
         previous holder's release until this acquire completed. *)
      match m.obs with
      | None -> ()
      | Some tr ->
        let sp = Mgs_obs.Trace.spans tr in
        let c =
          Span.open_span sp ~parent:Span.none ~time:t.last_release ~label:"lock.handoff"
            ~engine:Mgs_obs.Event.Sync ~src:t.last_holder ~dst:proc
            ~src_ssmp:(Topology.ssmp_of_proc m.topo t.last_holder)
            ~dst_ssmp:(Topology.ssmp_of_proc m.topo proc) ()
        in
        Span.close sp c ~time:t1
    end
  end;
  t.last_holder <- proc

let release (ctx : Mgs.Api.ctx) t =
  (match t.st with
  | Token_st l -> Token.release ctx t l
  | Tas_st l -> Tas.release ctx t l
  | Ticket_st l -> Ticket.release ctx t l
  | Mcs_st l -> Mcs.release ctx t l
  | Clh_st l -> Clh.release ctx t l);
  t.last_release <- Sim.now t.m.sim

let handoffs t = t.handoffs

(* --- handoff-gap statistics ---------------------------------------- *)

type gap_stats = { n : int; mean : float; max : int; cv : float }

let gap_stats t =
  if t.gap_n = 0 then { n = 0; mean = 0.; max = 0; cv = 0. }
  else begin
    let fn = float_of_int t.gap_n in
    let mean = float_of_int t.gap_sum /. fn in
    let cv = if mean > 0. then sqrt (t.gap_w.w_m2 /. fn) /. mean else 0. in
    { n = t.gap_n; mean; max = t.gap_max; cv }
  end
