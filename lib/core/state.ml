(* Shared mutable state of one simulated DSSMP running MGS.

   This module holds the data structures of all three protocol engines
   (Local Client, Remote Client, Server — paper Figure 4) plus the
   machine assembly record.  It is internal to the [mgs] library:
   applications go through {!Machine} and {!Api}; the synchronization
   library reaches in for the pieces it shares with the protocol (the
   active-message layer, CPUs, and the release operation). *)

module Bitset = Mgs_util.Bitset
module Inttbl = Mgs_util.Inttbl
module Sim = Mgs_engine.Sim
module Geom = Mgs_mem.Geom
module Pagedata = Mgs_mem.Pagedata
module Allocator = Mgs_mem.Allocator
module Topology = Mgs_machine.Topology
module Costs = Mgs_machine.Costs
module Cpu = Mgs_machine.Cpu
module Coherence = Mgs_cache.Coherence
module Adapt = Mgs_cache.Adapt
module Lan = Mgs_net.Lan
module Am = Mgs_am.Am
module Tlb = Mgs_svm.Tlb

(* Local Client page states (Figure 4 left).  The TLB_* states of the
   paper live in the per-processor TLBs; [pstate] is the SSMP-level
   page privilege. *)
type page_state = P_inv | P_read | P_write | P_busy

(* Per-(SSMP, page) client entry: the Local Client's mapping state plus
   the Remote Client's invalidation bookkeeping for the same frame.

   Frame ownership: a frame (a page-sized array) has exactly one holder
   at a time — this entry's [cdata], its spare slot [cdata_free], or
   one message in flight (a request or grant carrying it, or a reply
   moving a freed copy home) — and it is never a sentry's [s_master].  Dropping a copy parks its frame in the spare slot
   ({!retire_frame}); the next fetch from this SSMP takes it
   ({!take_frame}) and carries it to the home, which fills it from the
   master ({!grant_frame}) and ships it back as the grant.  A spare
   only ever serves its own page, and every retire site bumps [gen]
   first, so a fast-path cache never reads a frame after it left.  A
   1WINV lends the 1WDATA a frame of the home's ({!lend_frame}). *)
type centry = {
  c_vpn : int;
  mutable pstate : page_state;
  mutable cdata : Pagedata.page option; (* physical local copy *)
  mutable cdata_free : Pagedata.page option;
      (* retired frame kept for this page's next fetch: copies come and
         go many times per page, and a fresh frame is a page-sized
         allocation each time *)
  mutable ctwin : Pagedata.twin option;
      (* twin + dirty-word bitmap, present iff write privilege *)
  mutable ctwin_free : Pagedata.twin option;
      (* retired twin buffer kept for reuse: write privilege comes and
         goes many times per page, and a fresh twin is a page-sized
         allocation each time *)
  mutable frame_owner : int; (* local proc index of first toucher; -1 unset *)
  tlb_dir : Bitset.t; (* local procs holding a TLB mapping *)
  mlock : Mlock.t; (* per-mapping mutual exclusion (Table 1 col. L) *)
  mutable fetch_resume : (unit -> unit) option; (* fiber blocked in BUSY / upgrade *)
  mutable inv_count : int; (* outstanding PINV_ACKs *)
  mutable inv_tt : int; (* 1 = read inv, 2 = write inv (diff), 3 = single writer *)
  mutable inv_frame : Pagedata.page option; (* the frame a 1WINV lent, until the reply *)
  mutable c_dirty : bool; (* written since the last twin sync (dirty bit) *)
  mutable c_version : int; (* HLRC: home version this copy reflects *)
  mutable c_notwin : bool;
      (* adaptive single-writer regime: this write copy was granted
         without a twin (no diffing possible; a recall ships the whole
         page instead) *)
}

type ssmp_client = {
  cl_id : int;
  cl_pages : centry Inttbl.t; (* vpn -> entry *)
  k_map : (int, int) Hashtbl.t;
      (* HLRC: page versions this SSMP has learned about through
         synchronization (its causal "knowledge").  A generic table, as
         are the lock and barrier notice maps it is folded into and out
         of: they are off the event path, and their iteration orders
         feed each other. *)
}

(* Per-processor delayed update queue (Table 1): the set of pages this
   processor has written since its last release.  [psync] holds pages
   whose entry was removed by a PINV (arc 12) because an invalidation
   epoch is collecting the writes: the next release must still await
   that epoch's completion (a cheap SYNC, not a new flush).  [psync]
   stays a generic table: {!Proto.sync} takes its pages in bucket order,
   so that order is part of the simulated machine. *)
type duq = {
  duq_set : unit Inttbl.t;
  duq_q : int Queue.t;
  psync : (int, unit) Hashtbl.t;
}

(* Server states (Figure 4 right). *)
type server_state = S_read | S_write | S_rel

type sentry = {
  s_vpn : int;
  s_home_proc : int; (* global processor whose memory is home *)
  s_master : Pagedata.page; (* the physical home copy *)
  s_read_dir : Bitset.t; (* SSMPs holding read copies *)
  s_write_dir : Bitset.t; (* SSMPs holding write copies *)
  s_frame_procs : int Inttbl.t; (* ssmp -> remote-client processor *)
  mutable s_state : server_state;
  mutable s_count : int; (* outstanding invalidation replies *)
  mutable s_retained : int; (* SSMP keeping its copy via 1WDATA; -1 none *)
  (* Replies are buffered and merged only when the last one arrives:
     the full page of a 1WDATA must be applied before any DIFF, or a
     concurrent upgrader's changes (WNOTIFY racing the REL) would be
     clobbered. *)
  mutable s_pending_page : Pagedata.page option;
  mutable s_pending_diffs : Pagedata.diff list;
  (* Requests parked during REL_IN_PROG carry the span context of the
     transaction they serve, so the eventual grant (sent from inside the
     epoch-completion handler, a different transaction) is still
     attributed to the requester's fault / release, and the frame the
     requester sent for the grant to fill. *)
  mutable s_pend_rd : (int * Mgs_obs.Span.ctx * Pagedata.page option) list;
      (* requester procs queued during REL_IN_PROG *)
  mutable s_pend_wr : (int * Mgs_obs.Span.ctx * Pagedata.page option) list;
  mutable s_pend_rl : (int * Mgs_obs.Span.ctx) list; (* releasers awaiting RACK *)
  mutable s_pend_rel_next : (int * Mgs_obs.Span.ctx) list;
      (* RELs deferred past this epoch *)
  mutable s_ivy_grantee : int; (* Ivy: processor awaiting the pending grant *)
  mutable s_ivy_grant_write : bool;
  mutable s_version : int; (* HLRC: bumped on every merged update *)
  mutable s_cur_home : int;
      (* adaptive home migration: the processor currently serving this
         page.  Equals [s_home_proc] (the allocator's static home)
         until the policy migrates the page; only ever mutated by the
         serving shard at an epoch boundary. *)
  s_ad : Mgs_cache.Adapt.page option;
      (* per-page classifier window + regime; Some iff [t.adapt] *)
  mutable s_ext_diffs : Pagedata.diff list;
      (* diffs applied in pass 1 of an epoch extension whose retained
         copy is twinless: the recalled full page would clobber them,
         so they are re-applied after the blit in pass 2; newest first *)
  mutable s_retained_notwin : bool;
      (* the copy in [s_retained] has no twin (granted under the
         single-writer regime) *)
  s_shadow : Pagedata.page;
      (* the page's shadow image: every logical write, applied in
         program order (empty when the shadow is off).  Allocated with
         the page, host-side, before the run.  Written by whichever
         shard performs the write; read by the reader's shard and by the
         home at epoch end.  In a data-race-free program a write and a
         conflicting access on another SSMP are ordered by
         synchronization that crosses the LAN, which takes at least the
         lookahead, so the two never run in the same window. *)
}

(* Protocol feature toggles (ablation studies; see bench targets). *)
type features = {
  single_writer_opt : bool;  (* paper section 3.1.1: 1WINV/1WDATA path *)
  early_read_ack : bool;
      (* paper section 4.2.4 ("future implementation"): acknowledge
         read-only invalidations before the page cleaning completes,
         taking the cleaning off the release's critical path *)
  pipelined_release : bool;
      (* Table 1 arcs 8-10 drain the DUQ one REL at a time; with this
         flag every REL is sent before the first RACK is awaited, so
         independent pages' epochs overlap *)
}

let default_features =
  { single_writer_opt = true; early_read_ack = false; pipelined_release = false }

(* Which software page protocol runs between SSMPs. *)
type protocol =
  | Protocol_mgs  (* the paper's multiple-writer release-consistent protocol *)
  | Protocol_ivy  (* sequentially-consistent single-writer baseline *)
  | Protocol_hlrc
      (* home-based lazy release consistency (TreadMarks-lineage): diffs
         flush to the home at release with no invalidation fan-out;
         write notices ride the synchronization objects and invalidate
         acquirer copies lazily *)

type t = {
  sim : Sim.t;
  costs : Costs.t;
  features : features;
  protocol : protocol;
  geom : Geom.t;
  topo : Topology.t;
  heap : Allocator.t;
  cpus : Cpu.t array;
  caches : Coherence.t array; (* one per SSMP *)
  lan : Lan.t;
  am : Am.t;
  clients : ssmp_client array;
  duqs : duq array; (* indexed by processor *)
  mutable servers : sentry array;
      (* indexed by page: every page's home-side entry, made by
         [Machine.alloc] before the run, so a run only reads the array *)
  tlbs : Tlb.t array;
  counters : int array array;
      (* one row of {!Pstats} columns per SSMP: a shard bumps only its
         own row ({!count}), and every column is a commutative sum, so
         the column totals ({!total}) match at every job count *)
  rel_resume : (unit -> unit) option array; (* per proc: fiber awaiting RACK *)
  home_frames : Pagedata.page list array; (* per SSMP, for its shard: {!lend_frame} *)
  mutable ran : bool; (* Machine.run has been called *)
  mutable par_jobs : int;
      (* requested engine domains, >= 1 *)
  shadow : bool;
      (* keep a sequentially-consistent mirror of every write, one
         [s_shadow] per page, to detect protocol data loss in
         data-race-free programs (config flag or MGS_SHADOW=1) *)
  shadow_errors : int array;
      (* reads that disagreed with the shadow, per SSMP, indexed like
         {!count} *)
  mutable check : (engine:Mgs_obs.Event.engine -> tag:string -> vpn:int -> unit) option;
      (* the online invariant checker, called by {!obs_emit} *)
  mutable obs : Mgs_obs.Trace.t option;
      (* structured event trace; None = the machine records nothing *)
  mutable store : Mgs_obs.Trace.t option;
      (* the store {!Machine.trace} returns: [obs] once the machine
         records, or else an application's own span store, which
         nothing in the machine writes *)
  mutable metrics : Mgs_obs.Metrics.t option;
      (* simulated-clock metrics sampler; records nothing into [obs] *)
  adapt : Mgs_cache.Adapt.t option;
      (* adaptive per-page coherence: per-SSMP home views and
         forwarding tables.  None = the static protocol, whose wire
         traffic and counters stay byte-identical to a build without
         the adaptive layer. *)
  gen : int Atomic.t;
      (* machine-wide mapping generation, bumped by every protocol
         downcall that can replace or retire a page's local state
         (install, flush, upgrade).  Per-ctx fast-path caches snapshot
         it and self-invalidate when it moves; see {!Api}.  Atomic
         because any shard may bump while another shard's fast path
         reads; a stale read only costs a spurious slow-path trip (the
         caches cache their own SSMP's state, which only their own
         shard retires). *)
}

(* Invalidate every per-ctx last-page cache.  Cheap (one increment), so
   protocol code calls it liberally — correctness only needs it on paths
   that retire [cdata]/[ctwin]/[frame_owner], staleness merely costs the
   next access its slow path. *)
let bump_gen m = Atomic.incr m.gen

(* The executing shard's slot in a per-SSMP table; host code, which
   runs on no shard, uses slot 0. *)
let cur_slot () =
  let c = Sim.cur () in
  if c < 0 then 0 else c

(* Bump counter column [k] by [n] in the executing shard's row. *)
let count m k n =
  let row = m.counters.(cur_slot ()) in
  row.(k) <- row.(k) + n

(* Column [k] summed over every SSMP's row. *)
let total m k = Array.fold_left (fun acc row -> acc + row.(k)) 0 m.counters

(* The page-state and REL_IN_PROG gauges move only here: a client
   entry's [pstate] and a server entry's [s_state] change through these
   two helpers, which the executing shard's row counts. *)
let pstate_col = function
  | P_inv -> Pstats.pages_inv
  | P_read -> Pstats.pages_read
  | P_write -> Pstats.pages_write
  | P_busy -> Pstats.pages_busy

let set_pstate m ce st =
  count m (pstate_col ce.pstate) (-1);
  count m (pstate_col st) 1;
  ce.pstate <- st

let set_s_state m se st =
  if se.s_state = S_rel then count m Pstats.rel_in_prog (-1);
  if st = S_rel then count m Pstats.rel_in_prog 1;
  se.s_state <- st

let local_idx m proc =
  proc - (Topology.ssmp_of_proc m.topo proc * m.topo.Topology.cluster)

let global_proc m ssmp lidx = (ssmp * m.topo.Topology.cluster) + lidx

let get_sentry m vpn = m.servers.(vpn)

let home_proc_of_vpn m vpn = m.servers.(vpn).s_home_proc

let client m ssmp = m.clients.(ssmp)

let get_centry m ssmp vpn =
  let cl = m.clients.(ssmp) in
  try Inttbl.find cl.cl_pages vpn
  with Not_found ->
    let e =
      {
        c_vpn = vpn;
        pstate = P_inv;
        cdata = None;
        cdata_free = None;
        ctwin = None;
        ctwin_free = None;
        frame_owner = -1;
        tlb_dir = Bitset.create m.topo.Topology.cluster;
        mlock = Mlock.create ();
        fetch_resume = None;
        inv_count = 0;
        inv_tt = 0;
        inv_frame = None;
        c_dirty = false;
        c_version = 0;
        c_notwin = false;
      }
    in
    Inttbl.add cl.cl_pages vpn e;
    count m Pstats.pages_inv 1;
    e

(* Twin buffers cycle through the entry's free slot: [retire_twin]
   parks the outgoing twin, [take_twin] reuses it via [Pagedata.retwin]
   (same resulting state as a fresh [twin_of], without the page-sized
   allocation). *)
let take_twin ce ~from =
  match ce.ctwin_free with
  | Some t ->
    ce.ctwin_free <- None;
    Pagedata.retwin t ~from;
    t
  | None -> Pagedata.twin_of from

let retire_twin ce =
  (match ce.ctwin with Some t -> ce.ctwin_free <- Some t | None -> ());
  ce.ctwin <- None

(* Frames cycle through the home: [retire_frame] parks the dropped copy
   in the spare slot (its [Some] cell too), [take_frame] hands it to the
   next fetch's request, and the home's [grant_frame] fills it from the
   master — a fresh copy only when the request carried none (a first
   touch, or a frame that moved home). *)
let retire_frame ce =
  (match ce.cdata with Some _ as f -> ce.cdata_free <- f | None -> ());
  ce.cdata <- None

let take_frame ce =
  let f = ce.cdata_free in
  ce.cdata_free <- None;
  f

let fill_frame frame ~from =
  match frame with
  | Some f ->
    Pagedata.blit ~src:from ~dst:f;
    f
  | None -> Pagedata.copy from

let grant_frame se frame = fill_frame frame ~from:se.s_master

(* A home's pool: a single writer keeps its copy and ships the page home
   in a 1WDATA (Table 1, arc 16), in a frame the home lends its 1WINV
   ([None] from an empty pool: the writer copies) and pools again once
   merged.  One pool serves every page an SSMP homes. *)
let lend_frame m se =
  let ssmp = Topology.ssmp_of_proc m.topo se.s_cur_home in
  match m.home_frames.(ssmp) with
  | f :: rest ->
    m.home_frames.(ssmp) <- rest;
    Some f
  | [] -> None

let pool_frame m se f =
  let ssmp = Topology.ssmp_of_proc m.topo se.s_cur_home in
  m.home_frames.(ssmp) <- f :: m.home_frames.(ssmp)

(* Delayed update queue: a set with FIFO flush order. *)
let duq_add d vpn =
  if not (Inttbl.mem d.duq_set vpn) then begin
    Inttbl.replace d.duq_set vpn ();
    Queue.add vpn d.duq_q
  end

let rec duq_pop d =
  match Queue.take_opt d.duq_q with
  | None -> None
  | Some vpn ->
    if Inttbl.mem d.duq_set vpn then begin
      Inttbl.remove d.duq_set vpn;
      Some vpn
    end
    else duq_pop d

let duq_is_empty d = Inttbl.length d.duq_set = 0

(* --- causal spans ----------------------------------------------------

   Thin wrappers over {!Mgs_obs.Span} that collapse to a single branch
   when observability is off.  The ambient context discipline: message
   handlers run under the context installed by {!Mgs_am.Am}; fibers
   restore their own root context after every suspension. *)

module Span = Mgs_obs.Span

let span_current m =
  match m.obs with
  | None -> Span.none
  | Some tr -> Span.current (Mgs_obs.Trace.spans tr)

let span_set m ctx =
  match m.obs with
  | None -> ()
  | Some tr -> Span.set_current (Mgs_obs.Trace.spans tr) ctx

(* Open a span as a child of [parent] (default: the ambient context),
   starting now.  With [parent = Span.none] this mints a fresh
   transaction — the root of a fault / release / sync episode. *)
let span_open m ?parent ~label ~engine ?(vpn = -1) ?(src = -1) ?(dst = -1) ?(words = 0) ()
    =
  match m.obs with
  | None -> Span.none
  | Some tr ->
    let sp = Mgs_obs.Trace.spans tr in
    let parent = match parent with Some p -> p | None -> Span.current sp in
    let src_ssmp = if src >= 0 then Topology.ssmp_of_proc m.topo src else -1 in
    let dst_ssmp = if dst >= 0 then Topology.ssmp_of_proc m.topo dst else -1 in
    Span.open_span_x sp ~parent ~time:(Sim.now m.sim) ~label ~engine ~vpn ~src ~dst
      ~src_ssmp ~dst_ssmp ~words

let span_close m ctx =
  match m.obs with
  | None -> ()
  | Some tr -> Span.close (Mgs_obs.Trace.spans tr) ctx ~time:(Sim.now m.sim)

(* Structured event emission.  The protocol engines call this at every
   state transition.  The online invariant checker, when attached, is
   called first; then, when observability is on, the event becomes one
   trace row, stamped with the ambient transaction ID so traces
   correlate with spans.  With both off this costs two branches.  All
   arguments are required: an optional argument boxes a [Some] per
   supplied value at every call site.  Absent fields are passed as
   [-1] / [0]. *)
let obs_emit m ~engine ~tag ~vpn ~src ~dst ~words ~cost ~dur =
  (match m.check with Some f -> f ~engine ~tag ~vpn | None -> ());
  match m.obs with
  | None -> ()
  | Some tr ->
    Mgs_obs.Trace.emit tr ~time:(Sim.now m.sim) ~engine ~tag ~vpn ~src ~dst
      ~src_ssmp:(if src < 0 then -1 else Topology.ssmp_of_proc m.topo src)
      ~dst_ssmp:(if dst < 0 then -1 else Topology.ssmp_of_proc m.topo dst)
      ~words ~cost ~dur
      ~txn:(Span.txn_of (Span.current (Mgs_obs.Trace.spans tr)))

(* --- the fiber side of a protocol transaction -------------------------

   The idioms every engine repeats around the Local Client: park the
   faulting fiber until its copy is granted, install that copy, park a
   releaser until its home acknowledges, and shoot down this SSMP's own
   TLB mappings of a page. *)

(* Park [proc]'s fiber, which holds [ce]'s mapping lock, until a handler
   calls {!wake_fetch}; then charge the wait to its MGS bucket,
   reinstall [ctx] (the fault's root span) and return the cycles
   waited. *)
let await_fetch m ~proc ce ~ctx =
  let cpu = m.cpus.(proc) in
  let t0 = cpu.Cpu.clock in
  Mgs_engine.Fiber.suspend (fun resume -> ce.fetch_resume <- Some resume);
  Cpu.resume_charge cpu Mgs (Sim.now m.sim);
  span_set m ctx;
  cpu.Cpu.clock - t0

let wake_fetch ce =
  match ce.fetch_resume with
  | Some resume ->
    ce.fetch_resume <- None;
    resume ()
  | None -> assert false

(* Install a copy granted by the home into [ce], which is BUSY with the
   requesting fiber of [proc] holding the mapping lock; [twin] twins it
   now.  The caller records its engine's extras and then resumes the
   fiber with {!wake_fetch}. *)
let install m ce ~proc ~write ~twin payload =
  assert (ce.pstate = P_busy);
  assert (Mlock.held ce.mlock);
  bump_gen m;
  ce.cdata <- Some payload;
  ce.ctwin <- (if twin then Some (take_twin ce ~from:payload) else None);
  ce.frame_owner <- local_idx m proc;
  set_pstate m ce (if write then P_write else P_read);
  ce.c_dirty <- false;
  Bitset.clear ce.tlb_dir

(* Park [proc]'s fiber until [n] RACK / VACK handlers have called
   {!wake_ack}, then charge the wait to its MGS bucket, reinstall [ctx]
   and return the cycles waited. *)
let await_acks m ~proc ~ctx n =
  let cpu = m.cpus.(proc) in
  let t0 = cpu.Cpu.clock in
  for _ = 1 to n do
    Mgs_engine.Fiber.suspend (fun resume ->
        assert (m.rel_resume.(proc) = None);
        m.rel_resume.(proc) <- Some resume)
  done;
  Cpu.resume_charge cpu Mgs (Sim.now m.sim);
  span_set m ctx;
  cpu.Cpu.clock - t0

let wake_ack m proc =
  match m.rel_resume.(proc) with
  | Some resume ->
    m.rel_resume.(proc) <- None;
    resume ()
  | None -> assert false

(* Drop every mapping this SSMP's processors hold of [ce]'s page
   directly, without a PINV round trip, and return the cycles to charge
   for it: [tlb_inv] per mapping, at least one. *)
let shoot_local_tlbs m ~ssmp ce =
  let n = Bitset.cardinal ce.tlb_dir in
  Bitset.iter
    (fun l -> Tlb.invalidate m.tlbs.(global_proc m ssmp l) ~vpn:ce.c_vpn)
    ce.tlb_dir;
  Bitset.clear ce.tlb_dir;
  m.costs.proto.tlb_inv * Int.max 1 n
