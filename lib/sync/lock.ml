open Mgs.State

let local_grant_bound cluster = max 1 (cluster / 2)

type local = {
  mutable has_token : bool;
  mutable held : bool;
  waiters : Mgs_engine.Waitq.t;
  mutable requested : bool; (* LOCKREQ outstanding at the home *)
  mutable recall : bool; (* home asked this SSMP to surrender the token *)
  mutable grants_left : int; (* local handoffs allowed while recall pending *)
  (* per-SSMP stat cells: acquiring fibers on different engine shards
     bump their own SSMP's cell; the accessors below sum them *)
  mutable l_acquires : int;
  mutable l_hits : int;
}

type t = {
  m : Mgs.State.t;
  home_ssmp : int;
  grant_bound : int;
  locals : local array;
  mutable token_at : int; (* home's view of the token owner *)
  mutable transfer : bool; (* a recall/grant cycle is in flight *)
  pending : int Queue.t; (* requester SSMPs queued at the home *)
  notices : (int, int) Hashtbl.t; (* HLRC: write notices riding the lock *)
}

let create (m : Mgs.Machine.t) ?(home = 0) ?grant_bound () =
  let nssmps = m.topo.Topology.nssmps in
  if home < 0 || home >= nssmps then invalid_arg "Lock.create: home";
  let bound =
    match grant_bound with
    | Some b ->
      if b < 0 then invalid_arg "Lock.create: grant_bound";
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
          l_acquires = 0;
          l_hits = 0;
        })
  in
  {
    m;
    home_ssmp = home;
    grant_bound = bound;
    locals;
    token_at = home;
    transfer = false;
    pending = Queue.create ();
    notices = Hashtbl.create 64;
  }

let home_proc l = Topology.first_proc_of_ssmp l.m.topo l.home_ssmp

let ssmp_proc l s = Topology.first_proc_of_ssmp l.m.topo s

(* --- home-side global lock ---------------------------------------- *)

let rec try_recall l =
  if (not l.transfer) && not (Queue.is_empty l.pending) then begin
    l.transfer <- true;
    let owner = l.token_at in
    Am.post l.m.am ~tag:"LK_RECALL" ~src:(home_proc l) ~dst:(ssmp_proc l owner) ~words:0
      ~cost:l.m.costs.sync.lock_local_acquire (fun _t -> on_recall l owner)
  end

and on_recall l s =
  let loc = l.locals.(s) in
  loc.recall <- true;
  loc.grants_left <- l.grant_bound;
  if not loc.held then surrender l s

(* Give the token back to the home so it can be granted onward.  Any
   fibers still parked locally are covered by a fresh LOCKREQ. *)
and surrender l s =
  let loc = l.locals.(s) in
  assert (loc.has_token && not loc.held);
  loc.has_token <- false;
  loc.recall <- false;
  if not (Mgs_engine.Waitq.is_empty loc.waiters) && not loc.requested then begin
    loc.requested <- true;
    Am.post l.m.am ~tag:"LK_REQ" ~src:(ssmp_proc l s) ~dst:(home_proc l) ~words:0
      ~cost:l.m.costs.sync.lock_local_acquire (fun _t -> on_lockreq l s)
  end;
  Am.post l.m.am ~tag:"LK_TOKREL" ~src:(ssmp_proc l s) ~dst:(home_proc l) ~words:0
    ~cost:l.m.costs.sync.lock_local_acquire (fun _t -> on_token_returned l)

and on_token_returned l =
  match Queue.take_opt l.pending with
  | None ->
    (* Nobody wants it anymore: park the token at the home SSMP. *)
    l.token_at <- l.home_ssmp;
    l.transfer <- false;
    l.locals.(l.home_ssmp).has_token <- true;
    grant_local l l.home_ssmp
  | Some next ->
    l.token_at <- next;
    l.transfer <- false;
    Am.post l.m.am ~tag:"LK_TOKEN" ~src:(home_proc l) ~dst:(ssmp_proc l next) ~words:0
      ~cost:l.m.costs.sync.lock_local_acquire (fun _t ->
        let loc = l.locals.(next) in
        loc.has_token <- true;
        loc.requested <- false;
        loc.recall <- false;
        loc.grants_left <- l.grant_bound;
        grant_local l next);
    try_recall l

and on_lockreq l s =
  if l.token_at = s && (not l.transfer) && Queue.is_empty l.pending then
    (* Crossed a grant already in flight to [s]; the local grant path
       serves the requester. *)
    ()
  else begin
    Queue.add s l.pending;
    try_recall l
  end

(* Hand the (free) local lock to the oldest parked fiber, if any. *)
and grant_local l s =
  let loc = l.locals.(s) in
  if (not loc.held) && not (Mgs_engine.Waitq.is_empty loc.waiters) then begin
    loc.held <- true;
    ignore (Mgs_engine.Waitq.wake_one l.m.sim loc.waiters)
  end

(* --- fiber-side local lock ---------------------------------------- *)

let acquire ctx l =
  let m = l.m in
  let cpu = (ctx : Mgs.Api.ctx).cpu in
  let s = Topology.ssmp_of_proc m.topo ctx.Mgs.Api.proc in
  let loc = l.locals.(s) in
  Cpu.sync_busy cpu;
  let flat = Topology.single_ssmp m.topo in
  Cpu.advance cpu Lock (if flat then m.costs.sync.flat_lock else m.costs.sync.lock_local_acquire);
  loc.l_acquires <- loc.l_acquires + 1;
  count m Mgs.Pstats.lock_acquires 1;
  (* Transaction root: one lock-acquire episode.  The LK_* messages it
     triggers (request, recall, token transfer) all inherit this ID. *)
  let root =
    span_open m ~parent:Span.none ~label:"sync.lock" ~engine:Mgs_obs.Event.Sync
      ~src:ctx.Mgs.Api.proc ~dst:(home_proc l) ()
  in
  span_set m root;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.lock_acquire" ~src:ctx.Mgs.Api.proc
    ~dst:(home_proc l)
    ~cost:(if loc.has_token then 1 else 0) ~vpn:(-1) ~words:0 ~dur:0;
  if loc.has_token then begin
    loc.l_hits <- loc.l_hits + 1;
    count m Mgs.Pstats.lock_hits 1;
    if not loc.held then loc.held <- true
    else begin
      (* Parked fibers are woken only by ownership transfer. *)
      Mgs_engine.Waitq.park loc.waiters;
      Cpu.resume_charge cpu Lock (Sim.now m.sim);
      span_set m root
    end
  end
  else begin
    if not loc.requested then begin
      loc.requested <- true;
      Cpu.advance cpu Lock m.costs.proto.msg_send;
      Am.post m.am ~tag:"LK_REQ" ~src:ctx.Mgs.Api.proc ~dst:(home_proc l) ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t -> on_lockreq l s)
    end;
    Mgs_engine.Waitq.park loc.waiters;
    Cpu.resume_charge cpu Lock (Sim.now m.sim);
    span_set m root
  end;
  (* acquire-side consistency action (lazy protocols apply the write
     notices carried by the lock) *)
  Mgs.Protocol.at_acquire m ~proc:ctx.Mgs.Api.proc ~notices:l.notices;
  span_close m root;
  span_set m Span.none

let release ctx l =
  let m = l.m in
  let cpu = (ctx : Mgs.Api.ctx).cpu in
  let s = Topology.ssmp_of_proc m.topo ctx.Mgs.Api.proc in
  let loc = l.locals.(s) in
  if not loc.held then failwith "Lock.release: not held by this SSMP";
  let root =
    span_open m ~parent:Span.none ~label:"sync.unlock" ~engine:Mgs_obs.Event.Sync
      ~src:ctx.Mgs.Api.proc ~dst:(home_proc l) ()
  in
  span_set m root;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.lock_release" ~src:ctx.Mgs.Api.proc
    ~dst:(home_proc l) ~vpn:(-1) ~words:0 ~cost:0 ~dur:0;
  (* Release consistency: propagate this SSMP's writes before anyone
     else can acquire (this is what dilates critical sections).  Under
     HLRC this flushes diffs home and attaches write notices to the
     lock instead of invalidating anyone. *)
  Mgs.Protocol.at_release m ~proc:ctx.Mgs.Api.proc ~notices:l.notices;
  (* the DUQ drain mints (and clears) its own transaction *)
  span_set m root;
  let flat = Topology.single_ssmp m.topo in
  Cpu.advance cpu Lock (if flat then m.costs.sync.flat_lock else m.costs.sync.lock_local_release);
  if Mgs_engine.Waitq.is_empty loc.waiters then begin
    loc.held <- false;
    if loc.recall then surrender l s
  end
  else if loc.recall && loc.grants_left <= 0 then begin
    (* Fairness bound: stop handing off locally, let the token go. *)
    loc.held <- false;
    surrender l s
  end
  else begin
    if loc.recall then loc.grants_left <- loc.grants_left - 1;
    (* Direct handoff: [held] stays true, the woken fiber owns it. *)
    ignore (Mgs_engine.Waitq.wake_one m.sim loc.waiters)
  end;
  span_close m root;
  span_set m Span.none

let waiters l =
  Array.fold_left (fun acc loc -> acc + Mgs_engine.Waitq.length loc.waiters) 0 l.locals

let waiters_cell l c = Mgs_engine.Waitq.length l.locals.(c).waiters

let reset l =
  Array.iteri
    (fun s loc ->
      ignore (Mgs_engine.Waitq.clear loc.waiters);
      loc.has_token <- s = l.home_ssmp;
      loc.held <- false;
      loc.requested <- false;
      loc.recall <- false;
      loc.grants_left <- l.grant_bound;
      loc.l_acquires <- 0;
      loc.l_hits <- 0)
    l.locals;
  l.token_at <- l.home_ssmp;
  l.transfer <- false;
  Queue.clear l.pending;
  Hashtbl.reset l.notices

let acquires l = Array.fold_left (fun acc loc -> acc + loc.l_acquires) 0 l.locals

let hits l = Array.fold_left (fun acc loc -> acc + loc.l_hits) 0 l.locals

let hit_ratio l =
  let a = acquires l in
  if a = 0 then 1.0 else float_of_int (hits l) /. float_of_int a
