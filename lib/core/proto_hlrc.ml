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
   version acknowledgement; a clean page returns at once.  Fiber
   context.  The caller holds the mapping lock across the whole round
   trip: a sibling releasing the same page parks on it and completes
   only once these writes are globally visible, preserving release
   ordering without any invalidation epoch. *)
let flush_and_wait m ~proc ~vpn =
  let c = m.costs in
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let cl = client m ssmp in
  let ce = get_centry m ssmp vpn in
  if ce.pstate = P_write && ce.c_dirty then begin
    let ctx = span_current m in
    let data = Option.get ce.cdata and twin = Option.get ce.ctwin in
    let d = Pagedata.diff data ~twin in
    bump_gen m;
    Pagedata.retwin twin ~from:data;
    ce.c_dirty <- false;
    (* re-protect the page (as TreadMarks-family systems do): shoot down
       the local TLB mappings so any further sibling write refaults and
       re-logs the page — otherwise writes through surviving Rw entries
       would never be flushed again *)
    let shoot = shoot_local_tlbs m ~ssmp ce in
    let nd = Pagedata.diff_size d in
    Cpu.advance m.cpus.(proc) Mgs
      ((m.geom.Geom.page_words * c.proto.diff_per_word)
      + (nd * c.proto.diff_word_out)
      + shoot + c.proto.msg_send);
    count m Pstats.releases 1;
    let home = Proto.home_for m ~ssmp vpn in
    let rec handle self =
      if
        Option.is_some m.adapt
        && Proto.forward m ~self ~vpn ~tag:"HLRC_DIFF"
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
            Proto.view_note m ~ssmp ~vpn newhome;
            if ce.c_version = prev then ce.c_version <- v;
            let known = Option.value ~default:0 (Hashtbl.find_opt cl.k_map vpn) in
            if v > known then Hashtbl.replace cl.k_map vpn v;
            wake_ack m proc)
      end
    in
    Am.post m.am ~tag:"HLRC_DIFF" ~src:proc ~dst:home ~words:(2 * nd)
      ~cost:(c.proto.server_op + (nd * c.proto.merge_per_word))
      (fun _t -> handle home);
    ignore (await_acks m ~proc ~ctx 1)
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
    Cpu.advance cpu Mgs (m.costs.proto.duq_op * Int.max 1 (Hashtbl.length cl.k_map / 8));
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
    Cpu.advance cpu Mgs (m.costs.proto.duq_op * Int.max 1 (Hashtbl.length map / 8));
    let stale = ref [] in
    Hashtbl.iter
      (fun vpn v ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt cl.k_map vpn) in
        if v > prev then Hashtbl.replace cl.k_map vpn v;
        match Inttbl.find_opt cl.cl_pages vpn with
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
          Cpu.advance cpu Mgs
            (shoot_local_tlbs m ~ssmp ce
            + (Geom.lines_per_page m.geom * m.costs.proto.clean_per_line));
          retire_frame ce;
          retire_twin ce;
          ce.c_dirty <- false;
          set_pstate m ce P_inv;
          count m Pstats.invals 1
        end;
        Mlock.release m.sim ce.mlock)
      stale
  end

(* --- Local Client steps; {!Protocol.fault} runs the rest ------------------ *)

(* Ask the home for the page and its version.  The home answers from its
   master, which is current with respect to every release that
   happens-before this fault's acquire.  A sibling's acquire may learn
   of a newer version while the fetch is in flight: [apply_notices]
   skips the busy page, so a reply older than the SSMP's [k_map] entry
   is not installed but re-requested, carrying the stale reply's frame
   as every request carries the SSMP's retired one. *)
let request m ~proc ~vpn ~write ~frame =
  let c = m.costs in
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let ce = get_centry m ssmp vpn in
  let cl = client m ssmp in
  count m (if write then Pstats.write_fetches else Pstats.read_fetches) 1;
  let rec send frame =
    let home = Proto.home_for m ~ssmp vpn in
    Am.post m.am
      ~tag:(if write then "HLRC_WREQ" else "HLRC_RREQ")
      ~src:proc ~dst:home ~words:0 ~cost:c.proto.server_op
      (fun _t -> handle home frame)
  and handle self frame =
    if
      Option.is_some m.adapt
      && Proto.forward m ~self ~vpn
        ~tag:(if write then "HLRC_WREQ" else "HLRC_RREQ")
        ~cost:c.proto.server_op
        (fun next -> handle next frame)
    then ()
    else begin
      let se = get_sentry m vpn in
      (match se.s_ad with
      | Some p when not write ->
        p.Adapt.w_rreq <- p.Adapt.w_rreq + 1;
        Bitset.add p.Adapt.w_readers ssmp
      | _ -> ());
      let payload = grant_frame se frame in
      let version = se.s_version in
      let install_cost =
        c.proto.frame_alloc
        +
        if write then c.proto.twin_alloc + (m.geom.Geom.page_words * c.proto.twin_per_word)
        else 0
      in
      Am.post m.am
        ~tag:(if write then "HLRC_WDAT" else "HLRC_RDAT")
        ~src:self ~dst:proc ~words:m.geom.Geom.page_words ~cost:install_cost (fun _t ->
          if version < Option.value ~default:0 (Hashtbl.find_opt cl.k_map vpn) then begin
            Proto.view_note m ~ssmp ~vpn self;
            send (Some payload)
          end
          else begin
            install m ce ~proc ~write ~twin:write payload;
            ce.c_version <- version;
            Proto.view_note m ~ssmp ~vpn self;
            wake_fetch ce
          end)
    end
  in
  send frame

(* Multiple writers are allowed: twin the read copy locally, no server
   contact. *)
let upgrade m ~proc ce =
  let c = m.costs in
  bump_gen m;
  ce.ctwin <- Some (take_twin ce ~from:(Option.get ce.cdata));
  set_pstate m ce P_write;
  Cpu.advance m.cpus.(proc) Mgs
    (c.proto.twin_alloc + (m.geom.Geom.page_words * c.proto.twin_per_word))
