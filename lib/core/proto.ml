open State

(* ------------------------------------------------------------------ *)
(* Adaptive coherence plumbing (no-ops unless [m.adapt]).             *)
(* ------------------------------------------------------------------ *)

(* Where this SSMP should address the page's home.  Clients consult
   their own SSMP's view table (updated by grant/RACK handlers, i.e.
   always on the owning shard); a stale view costs one forwarding hop,
   never correctness.  With the adaptive layer off this is exactly the
   allocator's static home. *)
let home_for m ~ssmp vpn =
  match m.adapt with
  | None -> home_proc_of_vpn m vpn
  | Some a -> (
    match Hashtbl.find_opt a.Adapt.views.(ssmp) vpn with
    | Some p -> p
    | None -> home_proc_of_vpn m vpn)

(* Record where the home answered from.  Only ever called from message
   handlers executing on [ssmp]'s own shard. *)
let view_note m ~ssmp ~vpn proc =
  match m.adapt with
  | None -> ()
  | Some a ->
    if proc = home_proc_of_vpn m vpn then Hashtbl.remove a.Adapt.views.(ssmp) vpn
    else Hashtbl.replace a.Adapt.views.(ssmp) vpn proc

(* A server-bound message addressed to [self], a processor whose SSMP
   no longer homes [vpn]: repost it toward the current home and tell
   the caller to stop (the sentry now belongs to another shard).  The
   check reads only the executing shard's own forwarding row.  Chains
   of forwards terminate: each hop follows a strictly newer migration,
   and the destination SSMP's stale entry is cleared by the MIGRATE
   custody message before (FIFO) any forward can bounce off it. *)
let forward m ~self ~vpn ~tag ~cost k =
  match m.adapt with
  | None -> false
  | Some a -> (
    let ssmp = Topology.ssmp_of_proc m.topo self in
    match Hashtbl.find_opt a.Adapt.fwd.(ssmp) vpn with
    | None -> false
    | Some next ->
      count m Pstats.adapt_fwds 1;
      Am.post m.am ~tag ~src:self ~dst:next ~words:0 ~cost (fun _t -> k next);
      true)

(* A regime switch: counted, and emitted as an ADAPT trace event whose
   [cost]/[words] carry the old/new regime codes (trace_lint checks the
   transition walks the lattice and never lands mid-epoch). *)
let adapt_switch m se ~old ~nxt =
  count m Pstats.adapt_reclass 1;
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"ADAPT" ~vpn:se.s_vpn
    ~src:se.s_cur_home ~dst:(-1) ~words:(Adapt.code nxt) ~cost:(Adapt.code old) ~dur:0

(* Classifier window bump at grant time (so requests parked through a
   release are counted when actually served). *)
let adapt_count_grant se ~ssmp ~write =
  match se.s_ad with
  | None -> ()
  | Some p ->
    if write then begin
      p.Adapt.w_wreq <- p.Adapt.w_wreq + 1;
      Bitset.add p.Adapt.w_writers ssmp
    end
    else begin
      p.Adapt.w_rreq <- p.Adapt.w_rreq + 1;
      Bitset.add p.Adapt.w_readers ssmp
    end

(* Move [se]'s home to the dominant writer's SSMP, keeping the local
   processor slot.  Shared by the MGS epoch-boundary decision and the
   HLRC merge-time decision; the caller has already checked that the
   move is safe (no outstanding directory members / no epoch open). *)
let adapt_move_home m a (p : Adapt.page) se =
  let cur = se.s_cur_home in
  let cur_ssmp = Topology.ssmp_of_proc m.topo cur in
  let dom = p.Adapt.dom in
  let nhome = global_proc m dom (local_idx m cur) in
  let vpn = se.s_vpn in
  count m Pstats.adapt_migs 1;
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"ADAPT.MIG" ~vpn ~src:cur ~dst:nhome
    ~words:m.geom.Geom.page_words ~cost:0 ~dur:0;
  se.s_cur_home <- nhome;
  Hashtbl.replace a.Adapt.fwd.(cur_ssmp) vpn nhome;
  Hashtbl.replace a.Adapt.views.(cur_ssmp) vpn nhome;
  p.Adapt.dom_streak <- 0;
  (* The custody message pays the page transfer and clears the
     destination's stale forwarding entry (if the page once lived
     there), so a page migrating back never chases its own tail. *)
  Am.post m.am ~tag:"MIGRATE" ~src:cur ~dst:nhome ~words:m.geom.Geom.page_words
    ~cost:
      (m.costs.proto.frame_alloc
      + (m.geom.Geom.page_words * m.costs.proto.copy_per_word))
    (fun _t ->
      Hashtbl.remove a.Adapt.fwd.(dom) vpn;
      Hashtbl.replace a.Adapt.views.(dom) vpn nhome)

(* ------------------------------------------------------------------ *)
(* Server engine: page replication (arcs 17-19, 22).                  *)
(* ------------------------------------------------------------------ *)

(* Ship a copy of the master page to [requester], granting its SSMP
   read or write privilege.  The receiver-side handler allocates the
   frame (and the twin, for writes) and installs the page, then resumes
   the faulting fiber, which still holds the mapping lock. *)
let send_data m se ~requester ~write =
  let c = m.costs in
  let ssmp = Topology.ssmp_of_proc m.topo requester in
  let cur = se.s_cur_home and vpn = se.s_vpn in
  (* Adaptive regimes act at grant time.  Invalidate-on-read: migratory
     data gets write privilege on a read request, skipping the later
     upgrade round trip.  Single-writer: the first (sole) writer gets
     its copy without a twin — no twin to allocate now, nothing to diff
     at recall. *)
  let eff_write =
    write
    || (match se.s_ad with Some p -> p.Adapt.regime = Adapt.Rinv | None -> false)
  in
  let notwin =
    eff_write
    && (match se.s_ad with
       | Some p -> p.Adapt.regime = Adapt.Rsw && Bitset.is_empty se.s_write_dir
       | None -> false)
  in
  adapt_count_grant se ~ssmp ~write:eff_write;
  if eff_write then begin
    Bitset.add se.s_write_dir ssmp;
    se.s_state <- S_write
  end
  else Bitset.add se.s_read_dir ssmp;
  if not (Hashtbl.mem se.s_frame_procs ssmp) then Hashtbl.replace se.s_frame_procs ssmp requester;
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.send_data" ~vpn:se.s_vpn
    ~src:cur ~dst:requester ~words:m.geom.Geom.page_words ~cost:0 ~dur:0;
  let payload = Pagedata.copy se.s_master in
  let install_cost =
    c.proto.frame_alloc
    +
    if eff_write && not notwin then
      c.proto.twin_alloc + (m.geom.Geom.page_words * c.proto.twin_per_word)
    else 0
  in
  let tag = if eff_write then "WDAT" else "RDAT" in
  Am.post m.am ~tag ~src:cur ~dst:requester ~words:m.geom.Geom.page_words
    ~cost:install_cost (fun _t ->
      let ce = get_centry m ssmp vpn in
      install m ce ~proc:requester ~write:eff_write ~twin:(eff_write && not notwin) payload;
      ce.c_notwin <- notwin;
      view_note m ~ssmp ~vpn cur;
      wake_fetch ce)

(* RREQ / WREQ arrival at the home (arcs 17-19; queued by arc 22 during
   a release).  [self] is the processor the message was addressed to —
   a former home forwards instead of touching the (migrated) sentry. *)
let rec server_req m ~self ~vpn ~requester ~write =
  if
    Option.is_some m.adapt
    && forward m ~self ~vpn
      ~tag:(if write then "WREQ" else "RREQ")
      ~cost:m.costs.proto.server_op
      (fun self -> server_req m ~self ~vpn ~requester ~write)
  then ()
  else begin
    let se = get_sentry m vpn in
    obs_emit m ~engine:Mgs_obs.Event.Server ~tag:(if write then "sv.wreq" else "sv.rreq")
      ~vpn ~src:requester ~dst:se.s_cur_home ~words:0 ~cost:0 ~dur:0;
    match se.s_state with
    | S_rel ->
      (* Arc 22: the fault waits out the release epoch.  The queueing
         delay is a span of its own — this is the "queue" component of
         the latency breakdown — and the stored context keeps the
         eventual grant attributed to the requester's transaction. *)
      let q =
        span_open m ~label:"sv.queue" ~engine:Mgs_obs.Event.Server ~vpn ~src:requester
          ~dst:se.s_cur_home ()
      in
      if write then se.s_pend_wr <- (requester, q) :: se.s_pend_wr
      else se.s_pend_rd <- (requester, q) :: se.s_pend_rd
    | S_read | S_write ->
      (* a second writing SSMP ends the single-writer regime on the
         spot (between epochs, so never mid-epoch) *)
      (match se.s_ad with
      | Some p
        when write
             && p.Adapt.regime = Adapt.Rsw
             && (not (Bitset.is_empty se.s_write_dir))
             && not (Bitset.mem se.s_write_dir (Topology.ssmp_of_proc m.topo requester))
        -> (
        match Adapt.demote p with
        | Some (old, nxt) -> adapt_switch m se ~old ~nxt
        | None -> ())
      | _ -> ());
      send_data m se ~requester ~write
  end

(* WNOTIFY arrival (arc 18): an SSMP upgraded its read copy in place.
   During REL_IN_PROG the notification is stale by construction — the
   in-flight INV will collect the SSMP's writes as a DIFF — so it is
   dropped. *)
let rec server_wnotify m ~self ~vpn ~ssmp =
  if
    Option.is_some m.adapt
    && forward m ~self ~vpn ~tag:"WNOTIFY" ~cost:m.costs.proto.server_op (fun self ->
        server_wnotify m ~self ~vpn ~ssmp)
  then ()
  else begin
    let se = get_sentry m vpn in
    obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.wnotify" ~vpn ~src:(-1) ~dst:(-1) ~words:0 ~cost:0 ~dur:0;
    match se.s_state with
    | S_rel -> ()
    | S_read | S_write ->
      if Bitset.mem se.s_read_dir ssmp then begin
        (match se.s_ad with
        | Some p ->
          p.Adapt.w_upg <- p.Adapt.w_upg + 1;
          Bitset.add p.Adapt.w_writers ssmp;
          (* an upgrader beside an existing writer ends single-writer *)
          if p.Adapt.regime = Adapt.Rsw && not (Bitset.is_empty se.s_write_dir) then (
            match Adapt.demote p with
            | Some (old, nxt) -> adapt_switch m se ~old ~nxt
            | None -> ())
        | None -> ());
        Bitset.remove se.s_read_dir ssmp;
        Bitset.add se.s_write_dir ssmp;
        se.s_state <- S_write
      end
  end

(* ------------------------------------------------------------------ *)
(* Release completion at the server (arc 23).                          *)
(* ------------------------------------------------------------------ *)

(* One adaptive decision, taken as the final act of a fully completed
   epoch (never during an extension pass or with a follow-up epoch
   already started): count residency, classify the window, apply the
   regime policy, and migrate the home to a dominant writer's SSMP.
   Everything is a pure function of directory state, so the decision is
   deterministic; and because it runs on the serving shard at an epoch
   boundary, regime transitions are never mid-epoch and migration never
   races reply collection. *)
let adapt_decide m a se (p : Adapt.page) =
  count m
    (match p.Adapt.regime with
    | Adapt.Rmw -> Pstats.adapt_res_mw
    | Adapt.Rsw -> Pstats.adapt_res_sw
    | Adapt.Rinv -> Pstats.adapt_res_inv)
    1;
  (match Adapt.decide p with
  | Some (old, nxt) -> adapt_switch m se ~old ~nxt
  | None -> ());
  if Adapt.wants_migration p then begin
    let cur_ssmp = Topology.ssmp_of_proc m.topo se.s_cur_home in
    let dom = p.Adapt.dom in
    (* Re-home only when the dominant writer's SSMP is not already the
       home and no other SSMP holds a copy (a lone write copy at [dom]
       itself is fine — that is exactly the page we are chasing).
       Inter-SSMP delivery takes at least the LAN latency — the
       engine's lookahead — so the new home's shard cannot touch the
       sentry before this shard's epoch-boundary writes are visible. *)
    if
      dom <> cur_ssmp
      && Bitset.is_empty se.s_read_dir
      && (Bitset.is_empty se.s_write_dir
         || (Bitset.cardinal se.s_write_dir = 1 && Bitset.mem se.s_write_dir dom))
    then adapt_move_home m a p se
  end

let rec complete_release m se =
  (* Merge buffered write-backs: the retained writer's full page first,
     then every diff (diffs carry exactly the words their writers
     modified this epoch, so they must win over the full page).  A
     twinless copy recalled by an epoch extension also ships a full
     page, one that predates the first pass's merge — re-apply the
     stashed first-pass diffs over it so they are not clobbered. *)
  (match se.s_pending_page with
  | Some p -> Pagedata.blit ~src:p ~dst:se.s_master
  | None -> ());
  List.iter (fun d -> Pagedata.apply_diff se.s_master d) se.s_ext_diffs;
  se.s_ext_diffs <- [];
  let had_diffs = se.s_pending_diffs <> [] in
  let applied = List.rev se.s_pending_diffs in
  List.iter (fun d -> Pagedata.apply_diff se.s_master d) applied;
  se.s_pending_page <- None;
  se.s_pending_diffs <- [];
  if had_diffs && se.s_retained >= 0 then begin
    (* A concurrent upgrader (WNOTIFY racing the REL) also wrote this
       page, so the "single" writer's retained copy misses the merged
       diff words.  Recall it with a plain invalidation and finish the
       release when its reply arrives. *)
    let ssmp = se.s_retained in
    let cur = se.s_cur_home in
    se.s_retained <- -1;
    (* A twinless retained copy cannot diff at the recall: it yields its
       whole (pre-merge) page, so stash this pass's diffs for re-merge. *)
    if se.s_retained_notwin then se.s_ext_diffs <- applied;
    se.s_retained_notwin <- false;
    se.s_count <- 1;
    count m Pstats.invals 1;
    obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.epoch_extend" ~vpn:se.s_vpn
      ~src:cur ~dst:(-1) ~words:0 ~cost:0 ~dur:0;
    let dst = Hashtbl.find se.s_frame_procs ssmp in
    Am.post m.am ~tag:"INV" ~src:cur ~dst ~words:0 ~cost:0 (fun _t ->
        client_inv m ~ssmp ~vpn:se.s_vpn ~single:false ~reply_to:cur)
  end
  else begin
  Bitset.clear se.s_read_dir;
  Bitset.clear se.s_write_dir;
  (* The single-writer optimization lets one SSMP keep its read-write
     copy across the release; the server must keep it in the write
     directory so a later release by anyone recalls that copy.  (The
     paper's Table 1 shows the directories cleared outright, but the
     retained copy of arc 16/tt=3 is only coherent if its membership
     survives — we keep it.) *)
  if se.s_retained >= 0 then Bitset.add se.s_write_dir se.s_retained;
  se.s_retained <- -1;
  se.s_state <- (if Bitset.is_empty se.s_write_dir then S_read else S_write);
  (* Epoch complete: master merged, directories rebuilt.  The release-
     visibility oracle compares the master against the shadow here. *)
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.epoch_end" ~vpn:se.s_vpn
    ~src:se.s_cur_home ~dst:(-1) ~words:0 ~cost:0 ~dur:0;
  let racks = se.s_pend_rl and rd = se.s_pend_rd and wr = se.s_pend_wr in
  se.s_pend_rl <- [];
  se.s_pend_rd <- [];
  se.s_pend_wr <- [];
  (* Drain the parked work under each waiter's own span context: the
     RACK / page grant leaves here, inside the last reply's handler, but
     belongs to the waiter's transaction. *)
  List.iter (fun (p, ctx) -> span_with m ctx (fun () -> send_rack m se p)) (List.rev racks);
  let grant ~write (r, qctx) =
    span_close m qctx;
    span_with m qctx (fun () -> send_data m se ~requester:r ~write)
  in
  List.iter (grant ~write:false) (List.rev rd);
  List.iter (grant ~write:true) (List.rev wr);
  (* Deferred RELs: all their writes precede this point, so one batched
     follow-up epoch covers every one of them.  Releasers whose SSMP no
     longer holds a copy were fully merged by the epoch that just
     completed and can be acknowledged outright. *)
  (match se.s_pend_rel_next with
  | [] -> ()
  | rels ->
    se.s_pend_rel_next <- [];
    let covered, pending =
      List.partition
        (fun (r, _) ->
          let rs = Topology.ssmp_of_proc m.topo r in
          not (Bitset.mem se.s_read_dir rs || Bitset.mem se.s_write_dir rs))
        rels
    in
    List.iter (fun (p, ctx) -> span_with m ctx (fun () -> send_rack m se p)) covered;
    if pending <> [] then start_epoch m se ~releasers:(List.rev pending));
  (* Epoch boundary: the one place regimes switch and homes move.  A
     batched follow-up epoch (S_rel again) defers the decision to its
     own completion. *)
  (match (m.adapt, se.s_ad) with
  | Some a, Some p when se.s_state <> S_rel -> adapt_decide m a se p
  | _ -> ())
  end

and send_rack m se proc =
  let cur = se.s_cur_home and vpn = se.s_vpn in
  Am.post m.am ~tag:"RACK" ~src:cur ~dst:proc ~words:0 ~cost:0 (fun _t ->
      view_note m ~ssmp:(Topology.ssmp_of_proc m.topo proc) ~vpn cur;
      wake_ack m proc)

(* Begin an invalidation epoch on behalf of [releasers] (arcs 20-21). *)
and start_epoch m se ~releasers =
  assert (se.s_state <> S_rel);
  let targets =
    let u = Bitset.copy se.s_read_dir in
    Bitset.union_into u se.s_write_dir;
    Bitset.elements u
  in
  let single =
    m.features.single_writer_opt
    && se.s_state = S_write
    && Bitset.cardinal se.s_write_dir = 1
  in
  se.s_state <- S_rel;
  se.s_count <- List.length targets;
  se.s_retained <- -1;
  se.s_pend_rl <- releasers;
  se.s_pend_rd <- [];
  se.s_pend_wr <- [];
  let cur = se.s_cur_home in
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.epoch_start" ~vpn:se.s_vpn
    ~src:cur ~cost:se.s_count ~dst:(-1) ~words:0 ~dur:0;
  if targets = [] then complete_release m se
  else
    List.iter
      (fun ssmp ->
        let sw = single && Bitset.mem se.s_write_dir ssmp in
        count m (if sw then Pstats.one_winvals else Pstats.invals) 1;
        let dst = Hashtbl.find se.s_frame_procs ssmp in
        Am.post m.am
          ~tag:(if sw then "1WINV" else "INV")
          ~src:cur ~dst ~words:0 ~cost:0
          (fun _t -> client_inv m ~ssmp ~vpn:se.s_vpn ~single:sw ~reply_to:cur))
      targets

(* ACK / DIFF / 1WDATA / YIELD arrival at the home (arcs 22-23). *)
and server_collect m ~vpn ~ssmp ~payload =
  let se = get_sentry m vpn in
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.collect" ~vpn ~dst:se.s_cur_home
    ~cost:se.s_count ~src:(-1) ~words:0 ~dur:0;
  assert (se.s_state = S_rel);
  (match payload with
  | `Ack ->
    count m Pstats.acks 1;
    (* under invalidate-on-read, a write grant recalled clean is the
       evidence that the eager grant was wasted (classifier input) *)
    (match se.s_ad with
    | Some p when Bitset.mem se.s_write_dir ssmp ->
      p.Adapt.w_clean <- p.Adapt.w_clean + 1
    | _ -> ());
    Hashtbl.remove se.s_frame_procs ssmp
  | `Diff d ->
    se.s_pending_diffs <- d :: se.s_pending_diffs;
    Hashtbl.remove se.s_frame_procs ssmp
  | `Page (p, nw) ->
    assert (se.s_pending_page = None);
    se.s_pending_page <- Some p;
    se.s_retained <- ssmp;
    se.s_retained_notwin <- nw
  | `Clean nw ->
    se.s_retained <- ssmp;
    se.s_retained_notwin <- nw
  | `Yield p ->
    (* a twinless write copy surrendering its page wholesale (no twin
       to diff against); the frame is freed, nothing is retained *)
    assert (se.s_pending_page = None);
    se.s_pending_page <- Some p;
    Hashtbl.remove se.s_frame_procs ssmp);
  se.s_count <- se.s_count - 1;
  assert (se.s_count >= 0);
  if se.s_count = 0 then complete_release m se

(* ------------------------------------------------------------------ *)
(* Remote Client engine: invalidation and write-back (arcs 14-16).     *)
(* ------------------------------------------------------------------ *)

(* All PINV_ACKs are in: clean up the frame and answer the server.
   Runs with the mapping lock held; releases it.  [reply_to] is the
   epoch owner, captured on the server's shard when the INV was posted —
   the sentry itself (whose home may since be mid-migration) is never
   read from this shard. *)
and finish_inv m ~ssmp ~vpn ~reply_to =
  let c = m.costs in
  let ce = get_centry m ssmp vpn in
  let rc = global_proc m ssmp ce.frame_owner in
  let home = reply_to in
  obs_emit m ~engine:Mgs_obs.Event.Remote_client ~tag:"rc.finish_inv" ~vpn ~src:rc ~dst:home
    ~cost:ce.inv_tt ~words:0 ~dur:0;
  let dirty = ref 0 in
  bump_gen m;
  (* Page cleaning also scrubs the cache model's metadata so a future
     refetch of this virtual page cannot see stale tags. *)
  ignore (Coherence.flush_page m.caches.(ssmp) ~vpn ~dirty);
  Bitset.clear ce.tlb_dir;
  let was_dirty = ce.c_dirty in
  ce.c_dirty <- false;
  match ce.inv_tt with
  | 2 when not was_dirty ->
    (* Write copy, but the dirty bit is clear: nothing changed since the
       last twin sync, so free the page and acknowledge without paying
       for a diff. *)
    ce.cdata <- None;
    retire_twin ce;
    ce.pstate <- P_inv;
    ce.c_notwin <- false;
    Mlock.release m.sim ce.mlock;
    Am.post m.am ~tag:"ACK" ~src:rc ~dst:home ~words:0 ~cost:0 (fun _t ->
        server_collect m ~vpn ~ssmp ~payload:`Ack)
  | 3 when not was_dirty ->
    (* Retained copy already in sync with the home: a cheap 1WCLEAN
       keeps the retention without resending the page. *)
    count m Pstats.one_wclean 1;
    Mlock.release m.sim ce.mlock;
    let nw = ce.c_notwin in
    Am.post m.am ~tag:"1WCLEAN" ~src:rc ~dst:home ~words:0 ~cost:0 (fun _t ->
        server_collect m ~vpn ~ssmp ~payload:(`Clean nw))
  | 1 ->
    (* Read copy: free the page and acknowledge.  With the early-ack
       optimization (paper section 4.2.4) the ACK leaves before the
       cleaning work completes — read-only data has no coherence issue,
       so the cleaning only needs to finish before the frame is reused,
       which the mapping lock guarantees. *)
    ce.cdata <- None;
    retire_twin ce;
    ce.pstate <- P_inv;
    ce.c_notwin <- false;
    if m.features.early_read_ack then begin
      Am.post m.am ~tag:"ACK" ~src:rc ~dst:home ~words:0 ~cost:0 (fun _t ->
          server_collect m ~vpn ~ssmp ~payload:`Ack);
      (* the cleaning runs after the ACK, holding only the mapping *)
      let clean = Geom.lines_per_page m.geom * c.proto.clean_per_line in
      Am.run_on m.am ~tag:"rc.clean" ~proc:rc ~at:(Sim.now m.sim) ~cost:clean (fun _t ->
          Mlock.release m.sim ce.mlock)
    end
    else begin
      Mlock.release m.sim ce.mlock;
      Am.post m.am ~tag:"ACK" ~src:rc ~dst:home ~words:0 ~cost:0 (fun _t ->
          server_collect m ~vpn ~ssmp ~payload:`Ack)
    end
  | 2 when ce.c_notwin ->
    (* Twinless write copy (single-writer regime) recalled by a plain
       invalidation: there is no twin to diff against, so yield the
       whole page and free the frame.  This is the price of skipping
       the twin — paid only when the single-writer call was wrong. *)
    let data = Option.get ce.cdata in
    let snapshot = Pagedata.copy data in
    count m Pstats.adapt_yields 1;
    ce.cdata <- None;
    retire_twin ce;
    ce.pstate <- P_inv;
    ce.c_notwin <- false;
    Mlock.release m.sim ce.mlock;
    Am.post m.am ~tag:"YIELD" ~src:rc ~dst:home ~words:m.geom.Geom.page_words
      ~cost:(m.geom.Geom.page_words * c.proto.copy_per_word) (fun _t ->
        server_collect m ~vpn ~ssmp ~payload:(`Yield snapshot))
  | 2 ->
    (* Write copy: diff against the twin, free the page, send the diff. *)
    let data = Option.get ce.cdata and twin = Option.get ce.ctwin in
    let d = Pagedata.diff data ~twin in
    let nd = Pagedata.diff_size d in
    count m Pstats.diffs 1;
    count m Pstats.diff_words nd;
    let diff_cost =
      (m.geom.Geom.page_words * c.proto.diff_per_word) + (nd * c.proto.diff_word_out)
    in
    ce.cdata <- None;
    retire_twin ce;
    ce.pstate <- P_inv;
    Am.run_on m.am ~tag:"rc.diff" ~proc:rc ~at:(Sim.now m.sim) ~cost:diff_cost (fun _t ->
        Mlock.release m.sim ce.mlock;
        Am.post m.am ~tag:"DIFF" ~src:rc ~dst:home ~words:(2 * nd)
          ~cost:(nd * c.proto.merge_per_word) (fun _t ->
            server_collect m ~vpn ~ssmp ~payload:(`Diff d)))
  | 3 when ce.c_notwin ->
    (* Single-writer regime: the retained copy has no twin to rebuild —
       ship the page home and keep the copy, skipping the retwin. *)
    let data = Option.get ce.cdata in
    let snapshot = Pagedata.copy data in
    count m Pstats.one_wdata 1;
    Mlock.release m.sim ce.mlock;
    Am.post m.am ~tag:"1WDATA" ~src:rc ~dst:home ~words:m.geom.Geom.page_words
      ~cost:(m.geom.Geom.page_words * c.proto.copy_per_word) (fun _t ->
        server_collect m ~vpn ~ssmp ~payload:(`Page (snapshot, true)))
  | 3 ->
    (* Single-writer optimization: ship the whole page home, keep the
       copy cached with a fresh twin. *)
    let data = Option.get ce.cdata in
    let snapshot = Pagedata.copy data in
    (match ce.ctwin with
    | Some t -> Pagedata.retwin t ~from:data
    | None -> assert false);
    count m Pstats.one_wdata 1;
    let retwin_cost = m.geom.Geom.page_words * c.proto.twin_per_word in
    Am.run_on m.am ~tag:"rc.retwin" ~proc:rc ~at:(Sim.now m.sim) ~cost:retwin_cost (fun _t ->
        Mlock.release m.sim ce.mlock;
        Am.post m.am ~tag:"1WDATA" ~src:rc ~dst:home ~words:m.geom.Geom.page_words
          ~cost:(m.geom.Geom.page_words * c.proto.copy_per_word) (fun _t ->
            server_collect m ~vpn ~ssmp ~payload:(`Page (snapshot, false))))
  | _ -> assert false

(* INV / 1WINV arrival at an SSMP (arc 14): under the mapping lock,
   clean the page, interrupt every mapping processor with PINV, and
   finish when the last PINV_ACK returns (arcs 15-16). *)
and client_inv m ~ssmp ~vpn ~single ~reply_to =
  let c = m.costs in
  let ce = get_centry m ssmp vpn in
  obs_emit m ~engine:Mgs_obs.Event.Remote_client ~tag:"rc.inv" ~vpn
    ~dst:(global_proc m ssmp 0) ~cost:(if single then 1 else 0) ~src:(-1) ~words:0 ~dur:0;
  (* The continuation may run much later (mapping lock busy); capture
     the invalidation's context now and reinstall it around the body so
     the ACK / DIFF it sends stays attributed to this epoch. *)
  let ictx = span_current m in
  Mlock.acquire_k m.sim ce.mlock (fun () ->
      span_with m ictx @@ fun () ->
      match ce.pstate with
      | P_inv ->
        (* The copy is already gone (stale INV); just acknowledge. *)
        let src = global_proc m ssmp 0 in
        Mlock.release m.sim ce.mlock;
        Am.post m.am ~tag:"ACK" ~src ~dst:reply_to ~words:0 ~cost:0 (fun _t ->
            server_collect m ~vpn ~ssmp ~payload:`Ack)
      | P_busy -> assert false (* a BUSY SSMP is never in the directories *)
      | P_read | P_write ->
        (* Table 1 arc 12 drops the page from the DUQ here, since the
           in-flight invalidation will carry the SSMP's writes home.
           We deliberately keep the entry: a local writer's release must
           not complete before those writes are merged, and its REL —
           arriving while the epoch is in REL_IN_PROG — is exactly what
           blocks it until then (it gets RACKed at completion).  A REL
           for an epoch that already completed finds empty directories
           and acknowledges immediately, so the cost is one message. *)
        let rc = global_proc m ssmp ce.frame_owner in
        let was_write = ce.pstate = P_write in
        ce.inv_tt <- (if single then 3 else if was_write then 2 else 1);
        (* Cleaning cost: read invalidations and 1WINV clean the page up
           front (arc 14); write invalidations pay the diff instead.
           With the early-ack optimization the read-copy cleaning moves
           off the critical path (it runs after the ACK, in finish_inv). *)
        let clean_cost =
          if single || ((not was_write) && not m.features.early_read_ack) then
            Geom.lines_per_page m.geom * c.proto.clean_per_line
          else 0
        in
        Am.run_on m.am ~tag:"rc.inv_clean" ~proc:rc ~at:(Sim.now m.sim) ~cost:clean_cost
          (fun _t ->
            let targets = Bitset.elements ce.tlb_dir in
            ce.inv_count <- List.length targets;
            if targets = [] then finish_inv m ~ssmp ~vpn ~reply_to
            else
              List.iter
                (fun lidx ->
                  let p = global_proc m ssmp lidx in
                  count m Pstats.pinvs 1;
                  Am.post m.am ~tag:"PINV" ~src:rc ~dst:p ~words:0 ~cost:c.proto.tlb_inv
                    (fun _t ->
                      Tlb.invalidate m.tlbs.(p) ~vpn;
                      (* Arc 12: this epoch collects the page's writes,
                         so drop the DUQ entry — but remember that the
                         processor's next release must await the
                         epoch's completion. *)
                      let d = m.duqs.(p) in
                      if Hashtbl.mem d.duq_set vpn then begin
                        Hashtbl.remove d.duq_set vpn;
                        Hashtbl.replace d.psync vpn ()
                      end;
                      Am.post m.am ~tag:"PINV_ACK" ~src:p ~dst:rc ~words:0 ~cost:0
                        (fun _t ->
                          ce.inv_count <- ce.inv_count - 1;
                          if ce.inv_count = 0 then finish_inv m ~ssmp ~vpn ~reply_to)))
                targets))

(* SYNC arrival: the releaser only needs the epoch that collected its
   writes to be complete.  If one is in flight, ride its RACK list
   (safe here: the writes predate the epoch's TLB quiesce); otherwise
   everything is already merged. *)
and server_sync m ~self ~vpn ~releaser =
  if
    Option.is_some m.adapt
    && forward m ~self ~vpn ~tag:"SYNC" ~cost:m.costs.proto.duq_op (fun self ->
        server_sync m ~self ~vpn ~releaser)
  then ()
  else begin
    let se = get_sentry m vpn in
    obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.sync" ~vpn ~src:releaser
      ~dst:se.s_cur_home ~words:0 ~cost:0 ~dur:0;
    match se.s_state with
    | S_rel -> se.s_pend_rl <- (releaser, span_current m) :: se.s_pend_rl
    | S_read | S_write -> send_rack m se releaser
  end

(* REL arrival at the home (arcs 20-22). *)
and server_rel m ~self ~vpn ~releaser =
  if
    Option.is_some m.adapt
    && forward m ~self ~vpn ~tag:"REL" ~cost:m.costs.proto.server_op (fun self ->
        server_rel m ~self ~vpn ~releaser)
  then ()
  else begin
    let se = get_sentry m vpn in
    obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"sv.rel" ~vpn ~src:releaser
      ~dst:se.s_cur_home ~words:0 ~cost:0 ~dur:0;
    match se.s_state with
    | S_rel ->
      (* Joining the current epoch's RACK list would be unsound: writes
         performed after this epoch's snapshots (possible with a retained
         copy) would appear released before they are merged.  Reprocess
         the REL once the epoch completes. *)
      se.s_pend_rel_next <- (releaser, span_current m) :: se.s_pend_rel_next
    | (S_read | S_write)
      when
        (let rs = Topology.ssmp_of_proc m.topo releaser in
         not (Bitset.mem se.s_read_dir rs || Bitset.mem se.s_write_dir rs)) ->
      (* The releaser's SSMP holds no copy: its writes were collected by
         an earlier invalidation whose epoch has already completed, so
         the release is already globally visible — acknowledge without
         invalidating anyone. *)
      send_rack m se releaser
    | S_read | S_write -> start_epoch m se ~releasers:[ (releaser, span_current m) ]
  end

(* ------------------------------------------------------------------ *)
(* Local Client steps (arcs 2, 5); {!Protocol.fault} runs the rest.    *)
(* ------------------------------------------------------------------ *)

(* Arc 5: ask the home for the page (RREQ / WREQ). *)
let request m ~proc ~vpn ~write =
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  count m (if write then Pstats.write_fetches else Pstats.read_fetches) 1;
  let home = home_for m ~ssmp vpn in
  Am.post m.am
    ~tag:(if write then "WREQ" else "RREQ")
    ~src:proc ~dst:home ~words:0 ~cost:m.costs.proto.server_op
    (fun _t -> server_req m ~self:home ~vpn ~requester:proc ~write)

(* Arc 2: upgrade the read copy in place through the Remote Client
   (arc 13), which twins the page and tells the home (WNOTIFY); the
   fiber waits for UP_ACK.  Its TLB already maps the page writable. *)
let upgrade m ~proc ce ~ctx =
  let c = m.costs in
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let vpn = ce.c_vpn in
  Cpu.advance m.cpus.(proc) Mgs c.proto.msg_send;
  let rc = global_proc m ssmp ce.frame_owner in
  let twin_cost = c.proto.twin_alloc + (m.geom.Geom.page_words * c.proto.twin_per_word) in
  Am.post m.am ~tag:"UPGRADE" ~src:proc ~dst:rc ~words:0 ~cost:twin_cost (fun _t ->
      bump_gen m;
      (match ce.cdata with
      | Some d -> ce.ctwin <- Some (take_twin ce ~from:d)
      | None -> assert false);
      ce.pstate <- P_write;
      let home = home_for m ~ssmp vpn in
      Am.post m.am ~tag:"WNOTIFY" ~src:rc ~dst:home ~words:0 ~cost:c.proto.server_op
        (fun _t -> server_wnotify m ~self:home ~vpn ~ssmp);
      Am.post m.am ~tag:"UP_ACK" ~src:rc ~dst:proc ~words:0 ~cost:0 (fun _t ->
          wake_fetch ce));
  count m Pstats.upgrade_wait (await_fetch m ~proc ce ~ctx)

(* ------------------------------------------------------------------ *)
(* Release operation, client side (arcs 8-10).                         *)
(* ------------------------------------------------------------------ *)

let release_all m ~proc =
  if not (Topology.single_ssmp m.topo) then begin
    let c = m.costs in
    let cpu = m.cpus.(proc) in
    let ssmp = Topology.ssmp_of_proc m.topo proc in
    let duq = m.duqs.(proc) in
    Cpu.sync_busy cpu;
    if not (duq_is_empty duq && Hashtbl.length duq.psync = 0) then begin
      count m Pstats.release_ops 1;
      obs_emit m ~engine:Mgs_obs.Event.Local_client ~tag:"lc.release" ~src:proc
        ~cost:(Hashtbl.length duq.duq_set) ~vpn:(-1) ~dst:(-1) ~words:0 ~dur:0;
      (* Transaction root for the whole DUQ drain; reinstalled after
         every RACK / SYNC wait so each REL inherits it. *)
      let root =
        span_open m ~parent:Span.none ~label:"release"
          ~engine:Mgs_obs.Event.Local_client ~src:proc ()
      in
      span_set m root;
      let take_sync () =
        let pick = Hashtbl.fold (fun vpn () _ -> Some vpn) duq.psync None in
        match pick with
        | Some vpn ->
          Hashtbl.remove duq.psync vpn;
          if Hashtbl.mem duq.duq_set vpn then None (* the REL below covers it *)
          else Some vpn
        | None -> None
      in
      let rec sync () =
        if Hashtbl.length duq.psync > 0 then begin
          (match take_sync () with
          | None -> ()
          | Some vpn ->
            count m Pstats.syncs 1;
            Cpu.advance cpu Mgs (c.proto.duq_op + c.proto.msg_send);
            let home = home_for m ~ssmp vpn in
            Am.post m.am ~tag:"SYNC" ~src:proc ~dst:home ~words:0 ~cost:c.proto.duq_op
              (fun _t -> server_sync m ~self:home ~vpn ~releaser:proc);
            count m Pstats.sync_wait (await_acks m ~proc ~ctx:root 1));
          sync ()
        end
      in
      let send_rel vpn =
        count m Pstats.releases 1;
        Cpu.advance cpu Mgs (c.proto.duq_op + c.proto.msg_send);
        let home = home_for m ~ssmp vpn in
        Am.post m.am ~tag:"REL" ~src:proc ~dst:home ~words:0 ~cost:c.proto.server_op
          (fun _t -> server_rel m ~self:home ~vpn ~releaser:proc)
      in
      if m.features.pipelined_release then begin
        (* optimization over Table 1 arcs 8-10: every REL is sent before
           the first RACK is awaited, overlapping independent pages'
           invalidation epochs *)
        let rec send_all acc =
          match duq_pop duq with
          | None -> acc
          | Some vpn ->
            send_rel vpn;
            send_all (acc + 1)
        in
        count m Pstats.rel_wait (await_acks m ~proc ~ctx:root (send_all 0));
        sync ()
      end
      else begin
        (* Table 1 semantics: one REL outstanding at a time *)
        let rec flush () =
          match duq_pop duq with
          | None -> sync ()
          | Some vpn ->
            send_rel vpn;
            count m Pstats.rel_wait (await_acks m ~proc ~ctx:root 1);
            flush ()
        in
        flush ()
      end;
      span_close m root;
      span_set m Span.none
    end
  end

let duq_pending m ~proc = Hashtbl.length m.duqs.(proc).duq_set
