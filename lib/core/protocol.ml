(* The Local Client (paper Figure 4, Table 1 arcs 1-7) and the one
   dispatch point over the three coherence engines.

   A fault runs the same steps under every engine: the entry charges,
   the mapping lock, the transaction root span, then a local fill, an
   upgrade of the SSMP's read copy, or a fetch from the home that parks
   the fiber in BUSY until the copy is installed; writes are logged in
   the delayed update queue (Ivy has none).  The engines differ only in
   the upgrade step and the home request, so those are the two places
   the fault path matches on [State.protocol], as do the release and
   acquire hooks the synchronization library calls. *)

open State

(* in name order, so [names ()] comes out sorted *)
let all = [ Protocol_hlrc; Protocol_ivy; Protocol_mgs ]

let name_of = function
  | Protocol_mgs -> "mgs"
  | Protocol_hlrc -> "hlrc"
  | Protocol_ivy -> "ivy"

let names () = List.map name_of all

let proto_of_name name =
  match List.find_opt (fun p -> name_of p = name) all with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "unknown protocol %S (known: %s)" name
         (String.concat ", " (names ())))

(* Arcs 1, 7: map the page in this processor's TLB. *)
let map m ~proc ce ~write =
  Bitset.add ce.tlb_dir (local_idx m proc);
  Tlb.fill m.tlbs.(proc) ~vpn:ce.c_vpn ~mode:(if write then Tlb.Rw else Tlb.Ro);
  Cpu.advance m.cpus.(proc) Mgs m.costs.svm.tlb_write

(* Arc 5: fetch from the home, BUSY with the mapping lock held, in the
   SSMP's retired frame of the page if it has one; the grant handler
   installs the copy and resumes the fiber. *)
let fetch m ~proc ce ~write ~root =
  let vpn = ce.c_vpn in
  set_pstate m ce P_busy;
  Cpu.advance m.cpus.(proc) Mgs m.costs.proto.msg_send;
  let frame = take_frame ce in
  (match m.protocol with
  | Protocol_mgs -> Proto.request m ~proc ~vpn ~write ~frame
  | Protocol_hlrc -> Proto_hlrc.request m ~proc ~vpn ~write ~frame
  | Protocol_ivy -> Proto_ivy.request m ~proc ~vpn ~write ~frame);
  count m Pstats.fetch_wait (await_fetch m ~proc ce ~ctx:root);
  map m ~proc ce ~write

let fault m ~proc ~vpn ~write =
  let c = m.costs in
  let cpu = m.cpus.(proc) in
  let ssmp = Topology.ssmp_of_proc m.topo proc in
  let ce = get_centry m ssmp vpn in
  Cpu.advance cpu Mgs c.svm.fault_entry;
  if Mlock.acquire_fiber m.sim ce.mlock then Cpu.resume_charge cpu Mgs (Sim.now m.sim);
  Cpu.advance cpu Mgs (c.svm.map_lock + c.svm.table_lookup);
  (* Transaction root: one fault episode, in simulated time.  Opened
     after the mapping lock is granted so the fiber's run-ahead CPU
     clock cannot skew the interval; the fiber reinstalls [root] after
     every suspension and clears it when the fault completes. *)
  let root =
    span_open m ~parent:Span.none ~label:"fault" ~engine:Mgs_obs.Event.Local_client ~vpn
      ~src:proc ()
  in
  span_set m root;
  obs_emit m ~engine:Mgs_obs.Event.Local_client ~tag:"lc.fault" ~vpn ~src:proc
    ~cost:(if write then 1 else 0) ~dst:(-1) ~words:0 ~dur:0;
  (match (ce.pstate, write) with
  | P_read, false | P_write, _ ->
    count m Pstats.tlb_local_fills 1;
    map m ~proc ce ~write
  | P_read, true -> (
    (* Arc 2: write to the SSMP's read copy. *)
    count m Pstats.upgrades 1;
    match m.protocol with
    | Protocol_mgs ->
      (* the TLB write precedes UPGRADE, so [upgrade_wait] excludes it *)
      map m ~proc ce ~write;
      Proto.upgrade m ~proc ce ~ctx:root
    | Protocol_hlrc ->
      Proto_hlrc.upgrade m ~proc ce;
      map m ~proc ce ~write
    | Protocol_ivy ->
      Proto_ivy.drop_copy m ~proc ce;
      fetch m ~proc ce ~write ~root)
  | P_inv, _ -> fetch m ~proc ce ~write ~root
  | P_busy, _ ->
    (* The mapping lock is held throughout BUSY, so no second fiber can
       observe it. *)
    assert false);
  (* Arcs 3, 4: log the write for the next release. *)
  if write && m.protocol <> Protocol_ivy then begin
    Cpu.advance cpu Mgs c.proto.duq_op;
    duq_add m.duqs.(proc) vpn;
    ce.c_dirty <- true
  end;
  Mlock.release m.sim ce.mlock;
  span_close m root;
  span_set m Span.none

let release m ~proc =
  match m.protocol with
  | Protocol_mgs -> Proto.release_all m ~proc
  | Protocol_hlrc -> Proto_hlrc.release_all m ~proc
  | Protocol_ivy -> ()

let at_release m ~proc ~notices =
  release m ~proc;
  if m.protocol = Protocol_hlrc then Proto_hlrc.publish m ~proc ~into:notices

let at_acquire m ~proc ~notices =
  if m.protocol = Protocol_hlrc then Proto_hlrc.apply_notices m ~proc notices
