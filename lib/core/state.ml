(* Shared mutable state of one simulated DSSMP running MGS.

   This module holds the data structures of all three protocol engines
   (Local Client, Remote Client, Server — paper Figure 4) plus the
   machine assembly record.  It is internal to the [mgs] library:
   applications go through {!Machine} and {!Api}; the synchronization
   library reaches in for the pieces it shares with the protocol (the
   active-message layer, CPUs, and the release operation). *)

module Bitset = Mgs_util.Bitset
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
   the Remote Client's invalidation bookkeeping for the same frame. *)
type centry = {
  c_vpn : int;
  mutable pstate : page_state;
  mutable cdata : Pagedata.page option; (* physical local copy *)
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
  mutable c_dirty : bool; (* written since the last twin sync (dirty bit) *)
  mutable c_version : int; (* HLRC: home version this copy reflects *)
  mutable c_notwin : bool;
      (* adaptive single-writer regime: this write copy was granted
         without a twin (no diffing possible; a recall ships the whole
         page instead) *)
}

type ssmp_client = {
  cl_id : int;
  cl_pages : (int, centry) Hashtbl.t; (* vpn -> entry *)
  k_map : (int, int) Hashtbl.t;
      (* HLRC: page versions this SSMP has learned about through
         synchronization (its causal "knowledge") *)
}

(* Per-processor delayed update queue (Table 1): the set of pages this
   processor has written since its last release.  [psync] holds pages
   whose entry was removed by a PINV (arc 12) because an invalidation
   epoch is collecting the writes: the next release must still await
   that epoch's completion (a cheap SYNC, not a new flush). *)
type duq = {
  duq_set : (int, unit) Hashtbl.t;
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
  s_frame_procs : (int, int) Hashtbl.t; (* ssmp -> remote-client processor *)
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
     attributed to the requester's fault / release. *)
  mutable s_pend_rd : (int * Mgs_obs.Span.ctx) list;
      (* requester procs queued during REL_IN_PROG *)
  mutable s_pend_wr : (int * Mgs_obs.Span.ctx) list;
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
         so they are re-applied after the blit in pass 2 *)
  mutable s_retained_notwin : bool;
      (* the copy in [s_retained] has no twin (granted under the
         single-writer regime) *)
}

(* Counters shared with the synchronization library (Figure 11). *)
type sync_counters = {
  mutable lock_acquires : int;
  mutable lock_hits : int; (* acquires satisfied without inter-SSMP messages *)
  mutable barrier_episodes : int;
}

(* Hooks registered by synchronization objects (the [Mgs_sync] lock
   registry) so the machine can reset and inspect them without a
   reverse library dependency: [Machine.reset_stats] runs every
   [sh_reset], [assert_quiescent] demands every [sh_waiters] be zero,
   and the metrics sampler sums [sh_waiters] into a gauge. *)
type sync_hook = {
  sh_name : string;
  sh_reset : unit -> unit; (* zero stats + drop dead queued waiters *)
  sh_waiters : unit -> int; (* fibers currently parked in the object *)
  sh_waiters_cell : int -> int;
      (* waiters attributed to one SSMP — read from that shard's own
         event context by the per-cell metrics sampler, so it must only
         touch state the shard owns (its processors' parked fibers) *)
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
  servers : (int, sentry) Hashtbl.t; (* vpn -> home-side entry *)
  tlbs : Tlb.t array;
  pstats : Pstats.t;
      (* shard 0's (and host code's) counter cell; shards 1.. write
         [pstats_extra] instead — see {!stats} *)
  pstats_extra : Pstats.t array;
      (* per-shard counter cells, indexed by SSMP; slot 0 is unused
         (shard 0 writes [pstats]).  Protocol counters are commutative
         sums, so per-shard cells merged at read time ({!pstats_sum})
         give the same totals at every job count. *)
  sync_counters : sync_counters;
  sync_extra : sync_counters array; (* same scheme as [pstats_extra] *)
  mutable sync_hooks : sync_hook list;
  rel_resume : (unit -> unit) option array; (* per proc: fiber awaiting RACK *)
  mutable fibers : Mgs_engine.Fiber.t list;
  mutable event_limit : int; (* livelock guard for Machine.run *)
  mutable par_jobs : int;
      (* requested engine domains, >= 1 *)
  shadow : (int, float) Hashtbl.t option;
      (* sequentially-consistent mirror used to detect protocol data
         loss in data-race-free programs (config flag or MGS_SHADOW=1) *)
  mutable shadow_errors : int;
  mutable obs : Mgs_obs.Trace.t option;
      (* structured event trace; None = observability fully disabled *)
  mutable metrics : Mgs_obs.Metrics.t option;
      (* simulated-clock metrics sampler, piggybacking on [obs] *)
  adapt : Mgs_cache.Adapt.t option;
      (* adaptive per-page coherence: per-SSMP home views and
         forwarding tables.  None = the static protocol, whose wire
         traffic and counters stay byte-identical to a build without
         the adaptive layer. *)
  gen : int Atomic.t;
      (* machine-wide mapping generation, bumped by every protocol
         downcall that can replace or retire a page's local state
         (install, flush, upgrade, phase reset).  Per-ctx fast-path
         caches snapshot it and self-invalidate when it moves; see
         {!Api}.  Atomic because any shard may bump while another
         shard's fast path reads; a stale read only costs a spurious
         slow-path trip (the caches cache their own SSMP's state, which
         only their own shard retires). *)
}

(* Invalidate every per-ctx last-page cache.  Cheap (one increment), so
   protocol code calls it liberally — correctness only needs it on paths
   that retire [cdata]/[ctwin]/[frame_owner], staleness merely costs the
   next access its slow path. *)
let bump_gen m = Atomic.incr m.gen

(* The counter cell protocol code must bump: the executing shard's.
   Shard 0 and host code share [m.pstats]. *)
let stats m =
  let c = Mgs_engine.Sim.cur () in
  if c <= 0 then m.pstats else m.pstats_extra.(c)

let syncs m =
  let c = Mgs_engine.Sim.cur () in
  if c <= 0 then m.sync_counters else m.sync_extra.(c)

(* Merged protocol counters: [m.pstats] plus every extra shard cell.
   This — not [m.pstats] — is what reports read. *)
let pstats_sum m =
  let t = Pstats.copy m.pstats in
  Array.iteri (fun i p -> if i > 0 then Pstats.add_into t p) m.pstats_extra;
  t

let sync_sum m =
  let t =
    {
      lock_acquires = m.sync_counters.lock_acquires;
      lock_hits = m.sync_counters.lock_hits;
      barrier_episodes = m.sync_counters.barrier_episodes;
    }
  in
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        t.lock_acquires <- t.lock_acquires + s.lock_acquires;
        t.lock_hits <- t.lock_hits + s.lock_hits;
        t.barrier_episodes <- t.barrier_episodes + s.barrier_episodes
      end)
    m.sync_extra;
  t

let local_idx m proc = proc mod m.topo.Topology.cluster

let global_proc m ssmp lidx = (ssmp * m.topo.Topology.cluster) + lidx

let home_proc_of_vpn m vpn = Allocator.home_of_vpn m.heap vpn

let client m ssmp = m.clients.(ssmp)

let get_centry m ssmp vpn =
  let cl = m.clients.(ssmp) in
  try Hashtbl.find cl.cl_pages vpn
  with Not_found ->
    let e =
      {
        c_vpn = vpn;
        pstate = P_inv;
        cdata = None;
        ctwin = None;
        ctwin_free = None;
        frame_owner = -1;
        tlb_dir = Bitset.create m.topo.Topology.cluster;
        mlock = Mlock.create ();
        fetch_resume = None;
        inv_count = 0;
        inv_tt = 0;
        c_dirty = false;
        c_version = 0;
        c_notwin = false;
      }
    in
    Hashtbl.add cl.cl_pages vpn e;
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

let get_sentry m vpn =
  try Hashtbl.find m.servers vpn
  with Not_found ->
    let e =
      {
        s_vpn = vpn;
        s_home_proc = home_proc_of_vpn m vpn;
        s_master = Pagedata.create m.geom;
        s_read_dir = Bitset.create m.topo.Topology.nssmps;
        s_write_dir = Bitset.create m.topo.Topology.nssmps;
        s_frame_procs = Hashtbl.create 8;
        s_state = S_read;
        s_count = 0;
        s_retained = -1;
        s_pending_page = None;
        s_pending_diffs = [];
        s_pend_rd = [];
        s_pend_wr = [];
        s_pend_rl = [];
        s_pend_rel_next = [];
        s_ivy_grantee = -1;
        s_ivy_grant_write = false;
        s_version = 0;
        s_cur_home = home_proc_of_vpn m vpn;
        s_ad =
          (match m.adapt with
          | Some _ -> Some (Adapt.new_page ~nssmps:m.topo.Topology.nssmps)
          | None -> None);
        s_ext_diffs = [];
        s_retained_notwin = false;
      }
    in
    Hashtbl.add m.servers vpn e;
    e

(* Delayed update queue: a set with FIFO flush order. *)
let duq_add d vpn =
  if not (Hashtbl.mem d.duq_set vpn) then begin
    Hashtbl.replace d.duq_set vpn ();
    Queue.add vpn d.duq_q
  end

let rec duq_pop d =
  match Queue.take_opt d.duq_q with
  | None -> None
  | Some vpn ->
    if Hashtbl.mem d.duq_set vpn then begin
      Hashtbl.remove d.duq_set vpn;
      Some vpn
    end
    else duq_pop d

let duq_is_empty d = Hashtbl.length d.duq_set = 0

(* Lightweight protocol tracing for debugging: set MGS_TRACE_VPN to a
   page number to stream that page's protocol events to stderr. *)
let trace_vpn =
  match Sys.getenv_opt "MGS_TRACE_VPN" with Some s -> int_of_string s | None -> -1

(* Call sites must guard with [if tracing then trace ...]: a bare call
   evaluates its arguments (often [Format.asprintf]) and spins up the
   printf machinery even when the output is discarded, which on the
   protocol's per-operation paths is a real allocation cost. *)
let tracing = trace_vpn >= 0

let trace m vpn fmt =
  if vpn = trace_vpn then
    Printf.eprintf ("[t=%d vpn=%d] " ^^ fmt ^^ "\n%!") (Sim.now m.sim) vpn
  else Printf.ifprintf stderr fmt

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

(* Run [f] with [ctx] as the ambient context, restoring afterwards. *)
let span_with m ctx f =
  match m.obs with
  | None -> f ()
  | Some tr ->
    let sp = Mgs_obs.Trace.spans tr in
    let saved = Span.current sp in
    Span.set_current sp ctx;
    f ();
    Span.set_current sp saved

(* Structured event emission: one cheap branch when observability is
   off, a full {!Mgs_obs.Event.t} into the trace when it is on.  The
   protocol engines call this at every state transition; the online
   invariant checker rides the trace's subscriber list.  Every event is
   stamped with the ambient transaction ID so traces correlate with
   spans. *)
(* All arguments are required: optional arguments would box a [Some]
   per supplied value at every call site, and this runs at every
   protocol transition.  Absent fields are passed as [-1] / [0]
   explicitly. *)
let obs_emit m ~engine ~tag ~vpn ~src ~dst ~words ~cost ~dur =
  match m.obs with
  | None -> ()
  | Some tr ->
    (* Build the record literally: routing every field through
       [Event.make]'s optional arguments boxes each one in a [Some] at
       the call — ~10 heap blocks per traced event. *)
    Mgs_obs.Trace.emit tr
      {
        Mgs_obs.Event.time = Sim.now m.sim;
        engine;
        tag;
        vpn;
        src;
        dst;
        src_ssmp = (if src < 0 then -1 else Topology.ssmp_of_proc m.topo src);
        dst_ssmp = (if dst < 0 then -1 else Topology.ssmp_of_proc m.topo dst);
        words;
        cost;
        dur;
        txn = (Span.current (Mgs_obs.Trace.spans tr)).Span.txn;
      }
