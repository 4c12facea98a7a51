open State

(* --- home side ------------------------------------------------------- *)

(* Merging a diff bumps the page version; both the previous and the new
   version are returned: the flusher's copy is complete with respect to
   the new version only if no foreign merge intervened since its fetch
   (i.e. the previous version is exactly the one its copy reflects).

   HLRC has no invalidation epochs, so a merge is its natural adaptive
   decision point.  Only the classification and home-migration halves
   of the adaptive layer apply (regimes describe MGS mechanics — twins
   and recalls — that HLRC does not use): a writer SSMP flushing
   [Adapt.migrate_streak] consecutive merges with no foreign merge in
   between pulls the page's home to itself, turning its subsequent
   flushes into local merges. *)
let home_merge m ~vpn ~flusher ~diff =
  let se = get_sentry m vpn in
  Pagedata.apply_diff se.s_master diff;
  let prev = se.s_version in
  se.s_version <- se.s_version + 1;
  count m Pstats.diffs 1;
  count m Pstats.diff_words (Pagedata.diff_size diff);
  (match (m.adapt, se.s_ad) with
  | Some a, Some p ->
    count m Pstats.adapt_res_mw 1;
    let fs = Topology.ssmp_of_proc m.topo flusher in
    p.Adapt.w_wreq <- p.Adapt.w_wreq + 1;
    Bitset.add p.Adapt.w_writers fs;
    (if p.Adapt.dom = fs then p.Adapt.dom_streak <- p.Adapt.dom_streak + 1
     else begin
       p.Adapt.dom <- fs;
       p.Adapt.dom_streak <- 1
     end);
    if
      p.Adapt.dom_streak >= Adapt.migrate_streak
      && fs <> Topology.ssmp_of_proc m.topo se.s_cur_home
    then Proto.adapt_move_home m a p se
  | _ -> ());
  (prev, se.s_version)

(* --- diff flushing ----------------------------------------------------- *)

(* Flush one page's accumulated writes to its home and wait for the
   version acknowledgement.  The mapping lock is held across the whole
   round trip: a sibling releasing the same page parks here and
   completes only once these writes are globally visible, preserving
   release ordering without any invalidation epoch. *)
let flush_locked m ~proc ~vpn k =
  let c = m.costs in
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let cl = client m ssmp in
  let ce = get_centry m ssmp vpn in
  if ce.pstate <> P_write || not ce.c_dirty then k ()
  else begin
    let data = Option.get ce.cdata and twin = Option.get ce.ctwin in
    let d = Pagedata.diff data ~twin in
    bump_gen m;
    Pagedata.retwin twin ~from:data;
    ce.c_dirty <- false;
    (* re-protect the page (as TreadMarks-family systems do): shoot down
       the local TLB mappings so any further sibling write refaults and
       re-logs the page — otherwise writes through surviving Rw entries
       would never be flushed again *)
    let mappers = Bitset.elements ce.tlb_dir in
    List.iter (fun l -> Tlb.invalidate m.tlbs.(global_proc m ssmp l) ~vpn) mappers;
    Bitset.clear ce.tlb_dir;
    let nd = Pagedata.diff_size d in
    let cpu = m.cpus.(proc) in
    Cpu.advance cpu Mgs
      ((m.geom.Geom.page_words * c.proto.diff_per_word)
      + (nd * c.proto.diff_word_out)
      + (c.proto.tlb_inv * max 1 (List.length mappers))
      + c.proto.msg_send);
    count m Pstats.releases 1;
    let home = Proto.home_for m ~ssmp vpn in
    if tracing then trace m vpn "flush by proc %d: %d words" proc nd;
    let rec handle self =
      if
        Proto.forward m ~self ~vpn ~tag:"HLRC_DIFF"
          ~cost:(c.proto.server_op + (nd * c.proto.merge_per_word))
          (fun next -> handle next)
      then ()
      else begin
        let prev, v = home_merge m ~vpn ~flusher:proc ~diff:d in
        (* read after the merge: the decision above may just have moved
           the home (to the flusher's own SSMP); the VACK carries the
           fresh address back so the next flush goes there directly *)
        let newhome = (get_sentry m vpn).s_cur_home in
        Am.post m.am ~tag:"HLRC_VACK" ~src:self ~dst:proc ~words:0 ~cost:0 (fun _t ->
            (* our copy now reflects version [v] only if it already
               reflected [prev] — a foreign merge in between means our
               copy misses those words and must stay marked stale *)
            if tracing then trace m vpn "vack proc %d: prev=%d v=%d c_version=%d" proc prev v ce.c_version;
            Proto.view_note m ~ssmp ~vpn newhome;
            if ce.c_version = prev then ce.c_version <- v;
            let known = Option.value ~default:0 (Hashtbl.find_opt cl.k_map vpn) in
            if v > known then Hashtbl.replace cl.k_map vpn v;
            k ())
      end
    in
    Am.post m.am ~tag:"HLRC_DIFF" ~src:proc ~dst:home ~words:(2 * nd)
      ~cost:(c.proto.server_op + (nd * c.proto.merge_per_word))
      (fun _t -> handle home)
  end

(* Run [flush_locked] from fiber context, suspending until the home's
   acknowledgement if the flush went remote. *)
let flush_and_wait m ~proc ~vpn =
  let cpu = m.cpus.(proc) in
  let finished = ref false in
  let ctx = span_current m in
  flush_locked m ~proc ~vpn (fun () ->
      finished := true;
      match m.rel_resume.(proc) with
      | Some resume ->
        m.rel_resume.(proc) <- None;
        resume ()
      | None -> () (* completed synchronously: nothing was dirty *));
  if not !finished then begin
    Mgs_engine.Fiber.suspend (fun resume ->
        assert (m.rel_resume.(proc) = None);
        m.rel_resume.(proc) <- Some resume);
    Cpu.resume_charge cpu Mgs (Sim.now m.sim);
    span_set m ctx
  end

let flush_page_fiber m ~proc ~vpn =
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let ce = get_centry m ssmp vpn in
  let cpu = m.cpus.(proc) in
  let ctx = span_current m in
  if Mlock.acquire_fiber m.sim ce.mlock then begin
    Cpu.resume_charge cpu Mgs (Sim.now m.sim);
    span_set m ctx
  end;
  flush_and_wait m ~proc ~vpn;
  Mlock.release m.sim ce.mlock

let flush_page_if_dirty = flush_page_fiber

let release_all m ~proc =
  if not (Topology.single_ssmp m.topo) then begin
    let duq = m.duqs.(proc) in
    let cpu = m.cpus.(proc) in
    Cpu.sync_busy cpu;
    if not (duq_is_empty duq) then begin
      count m Pstats.release_ops 1;
      (* transaction root for the whole DUQ flush *)
      let root =
        span_open m ~parent:Span.none ~label:"release"
          ~engine:Mgs_obs.Event.Local_client ~src:proc ()
      in
      span_set m root;
      let rec drain () =
        match duq_pop duq with
        | None -> ()
        | Some vpn ->
          Cpu.advance cpu Mgs m.costs.proto.duq_op;
          let t0 = cpu.Cpu.clock in
          flush_page_fiber m ~proc ~vpn;
          count m Pstats.rel_wait (cpu.Cpu.clock - t0);
          drain ()
      in
      drain ();
      span_close m root;
      span_set m Span.none
    end;
    (* a sibling's in-flight flush of a shared page is ordered by the
       mapping lock (held until its ack), so nothing else is needed *)
    Hashtbl.reset duq.psync
  end

(* --- notices ------------------------------------------------------------ *)

let publish m ~proc ~into =
  if not (Topology.single_ssmp m.topo) then begin
    let ssmp = Topology.ssmp_of_proc m.topo proc in
    let cl = client m ssmp in
    let cpu = m.cpus.(proc) in
    Cpu.advance cpu Mgs (m.costs.proto.duq_op * max 1 (Hashtbl.length cl.k_map / 8));
    Hashtbl.iter
      (fun vpn v ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt into vpn) in
        if v > prev then Hashtbl.replace into vpn v)
      cl.k_map
  end

let apply_notices m ~proc map =
  if not (Topology.single_ssmp m.topo) then begin
    let ssmp = Topology.ssmp_of_proc m.topo proc in
    let cl = client m ssmp in
    let cpu = m.cpus.(proc) in
    Cpu.advance cpu Mgs (m.costs.proto.duq_op * max 1 (Hashtbl.length map / 8));
    let stale = ref [] in
    Hashtbl.iter
      (fun vpn v ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt cl.k_map vpn) in
        if v > prev then Hashtbl.replace cl.k_map vpn v;
        match Hashtbl.find_opt cl.cl_pages vpn with
        | Some ce when (ce.pstate = P_read || ce.pstate = P_write) && ce.c_version < v ->
          stale := vpn :: !stale
        | _ -> ())
      map;
    (* Lazily invalidate every copy now known to be stale, in vpn order:
       the notice map's iteration order depends on how it was assembled
       (incrementally under one lock, staged-and-merged under a
       barrier), so sorting is what keeps the invalidation sequence —
       and hence the cycle counts — a function of the map's content
       only. *)
    let stale = List.sort_uniq compare !stale in
    let actx = span_current m in
    List.iter
      (fun vpn ->
        let ce = get_centry m ssmp vpn in
        if Mlock.acquire_fiber m.sim ce.mlock then begin
          Cpu.resume_charge cpu Mgs (Sim.now m.sim);
          span_set m actx
        end;
        let known = Option.value ~default:0 (Hashtbl.find_opt cl.k_map vpn) in
        if (ce.pstate = P_read || ce.pstate = P_write) && ce.c_version < known then begin
          (* our own unreleased writes must reach the home first *)
          flush_and_wait m ~proc ~vpn;
          (* drop the copy: cache scrub + local TLB shoot-down *)
          let dirty = ref 0 in
          bump_gen m;
          ignore (Coherence.flush_page m.caches.(ssmp) ~vpn ~dirty);
          let mappers = Bitset.elements ce.tlb_dir in
          List.iter (fun l -> Tlb.invalidate m.tlbs.(global_proc m ssmp l) ~vpn) mappers;
          Cpu.advance cpu Mgs
            ((m.costs.proto.tlb_inv * max 1 (List.length mappers))
            + (Geom.lines_per_page m.geom * m.costs.proto.clean_per_line));
          Bitset.clear ce.tlb_dir;
          ce.cdata <- None;
          retire_twin ce;
          ce.c_dirty <- false;
          ce.pstate <- P_inv;
          if tracing then trace m vpn "lazy invalidate at ssmp %d (proc %d, known %d)" ssmp proc known;
          count m Pstats.invals 1
        end;
        Mlock.release m.sim ce.mlock)
      stale
  end

(* --- fault path ----------------------------------------------------------- *)

let fault m ~proc ~vpn ~write =
  let c = m.costs in
  let cpu = m.cpus.(proc) in
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let duq = m.duqs.(proc) in
  let ce = get_centry m ssmp vpn in
  let lidx = local_idx m proc in
  Cpu.advance cpu Mgs c.svm.fault_entry;
  if Mlock.acquire_fiber m.sim ce.mlock then Cpu.resume_charge cpu Mgs (Sim.now m.sim);
  Cpu.advance cpu Mgs (c.svm.map_lock + c.svm.table_lookup);
  (* Transaction root for this fault episode (see {!Proto.fault}). *)
  let root =
    span_open m ~parent:Span.none ~label:"fault" ~engine:Mgs_obs.Event.Local_client ~vpn
      ~src:proc ()
  in
  span_set m root;
  let fill ~rw ~to_duq =
    Bitset.add ce.tlb_dir lidx;
    Tlb.fill m.tlbs.(proc) ~vpn ~mode:(if rw then Tlb.Rw else Tlb.Ro);
    Cpu.advance cpu Mgs c.svm.tlb_write;
    if to_duq then begin
      Cpu.advance cpu Mgs c.proto.duq_op;
      duq_add duq vpn;
      ce.c_dirty <- true
    end;
    Mlock.release m.sim ce.mlock;
    span_close m root;
    span_set m Span.none
  in
  match (ce.pstate, write) with
  | P_read, false ->
    count m Pstats.tlb_local_fills 1;
    fill ~rw:false ~to_duq:false
  | P_write, _ ->
    count m Pstats.tlb_local_fills 1;
    fill ~rw:write ~to_duq:write
  | P_read, true ->
    (* multiple writers are allowed: twin locally, no server contact *)
    count m Pstats.upgrades 1;
    if tracing then trace m vpn "upgrade in place by proc %d (c_version=%d)" proc ce.c_version;
    bump_gen m;
    ce.ctwin <- Some (take_twin ce ~from:(Option.get ce.cdata));
    ce.pstate <- P_write;
    Cpu.advance cpu Mgs (c.proto.twin_alloc + (m.geom.Geom.page_words * c.proto.twin_per_word));
    fill ~rw:true ~to_duq:true
  | P_inv, _ ->
    count m (if write then Pstats.write_fetches else Pstats.read_fetches) 1;
    ce.pstate <- P_busy;
    Cpu.advance cpu Mgs c.proto.msg_send;
    let home = Proto.home_for m ~ssmp vpn in
    let rec handle self =
      if
        Proto.forward m ~self ~vpn
          ~tag:(if write then "HLRC_WREQ" else "HLRC_RREQ")
          ~cost:c.proto.server_op
          (fun next -> handle next)
      then ()
      else begin
        let se = get_sentry m vpn in
        (match se.s_ad with
        | Some p when not write ->
          p.Adapt.w_rreq <- p.Adapt.w_rreq + 1;
          Bitset.add p.Adapt.w_readers ssmp
        | _ -> ());
        let payload = Pagedata.copy se.s_master in
        let version = se.s_version in
        if tracing then trace m vpn "fetch by proc %d write=%b version=%d" proc write version;
        let install_cost =
          c.proto.frame_alloc
          +
          if write then c.proto.twin_alloc + (m.geom.Geom.page_words * c.proto.twin_per_word)
          else 0
        in
        Am.post m.am
          ~tag:(if write then "HLRC_WDAT" else "HLRC_RDAT")
          ~src:self ~dst:proc ~words:m.geom.Geom.page_words ~cost:install_cost (fun _t ->
            assert (ce.pstate = P_busy);
            bump_gen m;
            ce.cdata <- Some payload;
            ce.ctwin <- (if write then Some (take_twin ce ~from:payload) else None);
            ce.frame_owner <- local_idx m proc;
            ce.pstate <- (if write then P_write else P_read);
            ce.c_dirty <- false;
            ce.c_version <- version;
            Bitset.clear ce.tlb_dir;
            Proto.view_note m ~ssmp ~vpn self;
            match ce.fetch_resume with
            | Some resume ->
              ce.fetch_resume <- None;
              resume ()
            | None -> assert false)
      end
    in
    Am.post m.am
      ~tag:(if write then "HLRC_WREQ" else "HLRC_RREQ")
      ~src:proc ~dst:home ~words:0 ~cost:c.proto.server_op
      (fun _t -> handle home);
    let t0 = cpu.Cpu.clock in
    Mgs_engine.Fiber.suspend (fun resume -> ce.fetch_resume <- Some resume);
    Cpu.resume_charge cpu Mgs (Sim.now m.sim);
    span_set m root;
    count m Pstats.fetch_wait (cpu.Cpu.clock - t0);
    fill ~rw:write ~to_duq:write
  | P_busy, _ -> assert false
