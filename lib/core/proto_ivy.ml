open State

(* Server-side page states are reused from the MGS sentry:
   - S_read: no writer; read_dir lists the SSMPs with read copies;
   - S_write: write_dir holds the single owner SSMP;
   - S_rel: an ownership transition is in progress (requests pend).

   Every transition — including the final data grant — holds the page
   in S_rel until the grantee acknowledges installation (IVY_GACK), so
   a later request can never invalidate a copy that is still in flight.
   [s_ivy_grantee]/[s_ivy_grant_write] describe the pending grant. *)

(* --- client side: invalidations and recalls ------------------------- *)

(* Invalidate the TLB entries of every mapping processor, then [k]. *)
let shoot_tlbs m ~ssmp ~vpn ~rc k =
  let ce = get_centry m ssmp vpn in
  let targets = Bitset.elements ce.tlb_dir in
  Bitset.clear ce.tlb_dir;
  match targets with
  | [] -> k ()
  | _ ->
    let remaining = ref (List.length targets) in
    List.iter
      (fun lidx ->
        let p = global_proc m ssmp lidx in
        count m Pstats.pinvs 1;
        Am.post m.am ~tag:"PINV" ~src:rc ~dst:p ~words:0 ~cost:m.costs.proto.tlb_inv
          (fun _t ->
            Tlb.invalidate m.tlbs.(p) ~vpn;
            Am.post m.am ~tag:"PINV_ACK" ~src:p ~dst:rc ~words:0 ~cost:0 (fun _t ->
                decr remaining;
                if !remaining = 0 then k ())))
      targets

(* Drop this SSMP's copy; reply with the page contents if it was the
   owner (the master must be refreshed before anyone else reads).  The
   owner's frame itself goes home, since it is freed here; a read
   copy's frame is parked for the SSMP's next fetch.
   A BUSY mapping means the copy was already dropped (an upgrade in
   flight) — nothing to do, and blocking on the mapping lock would
   deadlock against the fetching fiber. *)
(* Run [body] under [ce]'s mapping lock, in the arriving handler's span. *)
let under_lock m ce body =
  let ictx = span_current m in
  Mlock.acquire_k m.sim ce.mlock (fun () ->
      let saved = span_current m in
      span_set m ictx;
      body ();
      span_set m saved)

let client_inv m ~ssmp ~vpn ~(reply : Pagedata.page option -> unit) =
  let ce = get_centry m ssmp vpn in
  if ce.pstate = P_busy then reply None
  else
    under_lock m ce (fun () ->
        match ce.pstate with
        | P_inv | P_busy ->
          Mlock.release m.sim ce.mlock;
          reply None
        | P_read | P_write ->
          let was_owner = ce.pstate = P_write in
          let rc = global_proc m ssmp ce.frame_owner in
          let dirty = ref 0 in
          bump_gen m;
          ignore (Coherence.flush_page m.caches.(ssmp) ~vpn ~dirty);
          shoot_tlbs m ~ssmp ~vpn ~rc (fun () ->
              let payload = if was_owner then ce.cdata else None in
              if was_owner then ce.cdata <- None else retire_frame ce;
              ce.ctwin <- None;
              set_pstate m ce P_inv;
              let clean = Geom.lines_per_page m.geom * m.costs.proto.clean_per_line in
              Am.run_on m.am ~tag:"rc.inv_clean" ~proc:rc ~at:(Sim.now m.sim) ~cost:clean
                (fun _t ->
                  Mlock.release m.sim ce.mlock;
                  reply payload)))

(* Downgrade the owner to a read copy, returning the page contents. *)
let client_recall m ~ssmp ~vpn ~(reply : Pagedata.page -> unit) =
  let ce = get_centry m ssmp vpn in
  under_lock m ce (fun () ->
      assert (ce.pstate = P_write);
      let rc = global_proc m ssmp ce.frame_owner in
      let dirty = ref 0 in
      bump_gen m;
      ignore (Coherence.flush_page m.caches.(ssmp) ~vpn ~dirty);
      (* mapping processors refill read-only afterwards *)
      shoot_tlbs m ~ssmp ~vpn ~rc (fun () ->
          let payload = Pagedata.copy (Option.get ce.cdata) in
          set_pstate m ce P_read;
          let clean = Geom.lines_per_page m.geom * m.costs.proto.clean_per_line in
          Am.run_on m.am ~tag:"rc.inv_clean" ~proc:rc ~at:(Sim.now m.sim) ~cost:clean
            (fun _t ->
              Mlock.release m.sim ce.mlock;
              reply payload)))

(* --- server side ------------------------------------------------------ *)

(* Ship the page in [frame] (see {!State.grant_frame}); the transition
   stays open until the grantee's ack. *)
let rec do_grant m se ~requester ~write ~frame =
  let ssmp = Topology.ssmp_of_proc m.topo requester in
  let vpn = se.s_vpn in
  assert (se.s_state = S_rel);
  if write then begin
    Bitset.clear se.s_read_dir;
    Bitset.clear se.s_write_dir;
    Bitset.add se.s_write_dir ssmp
  end
  else Bitset.add se.s_read_dir ssmp;
  Hashtbl.replace se.s_frame_procs ssmp requester;
  let payload = grant_frame se frame in
  Am.post m.am
    ~tag:(if write then "IVY_WDAT" else "IVY_RDAT")
    ~src:se.s_home_proc ~dst:requester ~words:m.geom.Geom.page_words
    ~cost:(m.costs.proto.frame_alloc + m.costs.proto.server_op)
    (fun _t ->
      let ce = get_centry m ssmp vpn in
      install m ce ~proc:requester ~write ~twin:false payload;
      wake_fetch ce;
      Am.post m.am ~tag:"IVY_GACK" ~src:requester ~dst:se.s_home_proc ~words:0 ~cost:0
        (fun _t ->
          set_s_state m se (if Bitset.is_empty se.s_write_dir then S_read else S_write);
          (* serve requests that pended during the transition, each
             under its own transaction's context *)
          let rd = List.rev se.s_pend_rd and wr = List.rev se.s_pend_wr in
          se.s_pend_rd <- [];
          se.s_pend_wr <- [];
          let serve ~write (r, qctx, frame) =
            span_close m qctx;
            let saved = span_current m in
            span_set m qctx;
            server_req m ~vpn ~requester:r ~write ~frame;
            span_set m saved
          in
          List.iter (serve ~write:false) rd;
          List.iter (serve ~write:true) wr))

and server_req m ~vpn ~requester ~write ~frame =
  let se = get_sentry m vpn in
  let src_ssmp = Topology.ssmp_of_proc m.topo requester in
  match se.s_state with
  | S_rel ->
    (* an ownership transition is in flight: queue, with a span marking
       the wait (the "queue" component of the latency breakdown) *)
    let q =
      span_open m ~label:"sv.queue" ~engine:Mgs_obs.Event.Server ~vpn ~src:requester
        ~dst:se.s_home_proc ()
    in
    if write then se.s_pend_wr <- (requester, q, frame) :: se.s_pend_wr
    else se.s_pend_rd <- (requester, q, frame) :: se.s_pend_rd
  | S_read | S_write ->
    set_s_state m se S_rel;
    se.s_ivy_grantee <- requester;
    se.s_ivy_grant_write <- write;
    if write then begin
      count m Pstats.write_fetches 1;
      (* invalidate every other copy, then grant exclusivity *)
      let targets =
        let u = Bitset.copy se.s_read_dir in
        Bitset.union_into u se.s_write_dir;
        Bitset.remove u src_ssmp;
        Bitset.elements u
      in
      (* the requester's own membership (if any) is already gone: an
         upgrading SSMP drops its copy before sending IVY_WREQ *)
      Bitset.remove se.s_read_dir src_ssmp;
      if targets = [] then do_grant m se ~requester ~write:true ~frame
      else begin
        se.s_count <- List.length targets;
        (* a page that comes home in the owner's frame leaves the frame
           free once merged: it carries the grant if the requester sent
           none *)
        let carried = ref frame in
        List.iter
          (fun ssmp ->
            count m Pstats.invals 1;
            let dst = Hashtbl.find se.s_frame_procs ssmp in
            Am.post m.am ~tag:"IVY_INV" ~src:se.s_home_proc ~dst ~words:0 ~cost:0
              (fun _t ->
                let rc = Hashtbl.find se.s_frame_procs ssmp in
                client_inv m ~ssmp ~vpn ~reply:(fun payload ->
                    let words =
                      match payload with Some _ -> m.geom.Geom.page_words | None -> 0
                    in
                    let cost =
                      match payload with
                      | Some _ -> m.geom.Geom.page_words * m.costs.proto.copy_per_word
                      | None -> 0
                    in
                    Am.post m.am ~tag:"IVY_ACK" ~src:rc ~dst:se.s_home_proc ~words ~cost
                      (fun _t ->
                        (match payload with
                        | Some p ->
                          Pagedata.blit ~src:p ~dst:se.s_master;
                          if Option.is_none !carried then carried := payload
                        | None -> ());
                        Bitset.remove se.s_read_dir ssmp;
                        Bitset.remove se.s_write_dir ssmp;
                        Hashtbl.remove se.s_frame_procs ssmp;
                        se.s_count <- se.s_count - 1;
                        if se.s_count = 0 then
                          do_grant m se ~requester:se.s_ivy_grantee
                            ~write:se.s_ivy_grant_write ~frame:!carried))))
          targets
      end
    end
    else begin
      count m Pstats.read_fetches 1;
      match Bitset.choose se.s_write_dir with
      | Some owner when owner <> src_ssmp ->
        (* downgrade the owner first so the master is current *)
        se.s_count <- 1;
        let dst = Hashtbl.find se.s_frame_procs owner in
        count m Pstats.one_winvals 1;
        Am.post m.am ~tag:"IVY_RECALL" ~src:se.s_home_proc ~dst ~words:0 ~cost:0 (fun _t ->
            let rc = Hashtbl.find se.s_frame_procs owner in
            client_recall m ~ssmp:owner ~vpn ~reply:(fun payload ->
                Am.post m.am ~tag:"IVY_PAGE" ~src:rc ~dst:se.s_home_proc
                  ~words:m.geom.Geom.page_words
                  ~cost:(m.geom.Geom.page_words * m.costs.proto.copy_per_word)
                  (fun _t ->
                    Pagedata.blit ~src:payload ~dst:se.s_master;
                    Bitset.remove se.s_write_dir owner;
                    Bitset.add se.s_read_dir owner;
                    do_grant m se ~requester ~write:false ~frame)))
      | _ -> do_grant m se ~requester ~write:false ~frame
    end

(* --- Local Client steps; {!Protocol.fault} runs the rest ---------------- *)

let request m ~proc ~vpn ~write ~frame =
  let home = home_proc_of_vpn m vpn in
  Am.post m.am
    ~tag:(if write then "IVY_WREQ" else "IVY_RREQ")
    ~src:proc ~dst:home ~words:0 ~cost:m.costs.proto.server_op
    (fun _t -> server_req m ~vpn ~requester:proc ~write ~frame)

(* A write to a read-shared page: drop the local copy, shooting down
   the local TLB mappings, before fetching exclusive ownership (in the
   dropped frame). *)
let drop_copy m ~proc ce =
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  Cpu.advance m.cpus.(proc) Mgs (shoot_local_tlbs m ~ssmp ce);
  let dirty = ref 0 in
  bump_gen m;
  ignore (Coherence.flush_page m.caches.(ssmp) ~vpn:ce.c_vpn ~dirty);
  retire_frame ce
