open State

(* The per-reference pipeline is the simulator's innermost loop: every
   shared read/write of every app goes through it.  The common case —
   the processor re-references a page it already holds a sufficient TLB
   mapping for — is served by a per-ctx {e last-page cache} below that
   touches no Hashtbl and allocates nothing; protocol activity
   invalidates it through generation counters (see [lp_mgen]/[lp_tgen])
   rather than callbacks. *)
type ctx = {
  m : State.t;
  proc : int;
  cpu : Mgs_machine.Cpu.t;
  mutable ops : int;
  yield_mask : int;
  lidx : int; (* proc's index within its SSMP *)
  single : bool; (* single-SSMP machine: protocol bypassed *)
  cache : Mgs_cache.Coherence.t; (* this SSMP's hardware cache model *)
  tlb : Mgs_svm.Tlb.t; (* this processor's TLB *)
  (* Last-page cache: the resolved state of the most recent access.  An
     entry is valid iff [lp_vpn] matches and neither generation moved
     since the snapshot; any protocol downcall that could retire the
     mapping bumps [State.t.gen], and any shrink of this TLB bumps its
     own generation, so stale entries self-invalidate. *)
  mutable lp_vpn : int; (* -1 = empty *)
  mutable lp_mgen : int; (* State.t.gen at snapshot time *)
  mutable lp_tgen : int; (* Tlb.generation at snapshot time *)
  mutable lp_rw : bool; (* TLB granted Rw at snapshot time *)
  mutable lp_page : Mgs_mem.Pagedata.page; (* resolved data frame *)
  mutable lp_twin : Mgs_mem.Pagedata.twin option; (* dirty-word sink *)
  mutable lp_fowner : int; (* frame owner (local index) *)
}

(* Fibers yield to the event queue every [1 lsl yield_log] shared
   accesses, bounding the skew between a fiber's local clock and global
   simulated time (protocol events interleave at yield points). *)
let yield_log = 5

(* Testing hook: with the fast path off, every access takes the full
   slow path (TLB + page table + directory).  Results must be
   identical either way — asserted by test_fastpath. *)
let fast_path_enabled = ref true

let set_fast_path b = fast_path_enabled := b

let make_ctx m ~proc =
  if proc < 0 || proc >= m.topo.Topology.nprocs then invalid_arg "Api.make_ctx: proc";
  let single = Topology.single_ssmp m.topo in
  let s = Topology.ssmp_of_proc m.topo proc in
  {
    m;
    proc;
    cpu = m.cpus.(proc);
    ops = 0;
    yield_mask = (1 lsl yield_log) - 1;
    lidx = local_idx m proc;
    single;
    cache = m.caches.(s);
    tlb = m.tlbs.(proc);
    lp_vpn = -1;
    lp_mgen = 0;
    lp_tgen = 0;
    lp_rw = false;
    lp_page = [||];
    lp_twin = None;
    lp_fowner = 0;
  }

let proc ctx = ctx.proc

let nprocs ctx = ctx.m.topo.Topology.nprocs

let cluster ctx = ctx.m.topo.Topology.cluster

let ssmp ctx = Topology.ssmp_of_proc ctx.m.topo ctx.proc

let cycles ctx = ctx.cpu.Cpu.clock

let compute ctx n = Cpu.advance ctx.cpu User n

let idle_until ctx t =
  Mgs_engine.Fiber.sleep_until ctx.m.sim t;
  Cpu.catch_up_to ctx.cpu User (Sim.now ctx.m.sim)

let release ctx = Protocol.release ctx.m ~proc:ctx.proc

(* Refresh the last-page cache after the slow path resolved [vpn].
   Called with no intervening suspension point before the caller uses
   the entry, and always {e after} any fault completed: the snapshot
   therefore reflects the installed mapping. *)
let lp_refill ctx ~vpn ~page ~twin ~fowner =
  ctx.lp_vpn <- vpn;
  ctx.lp_rw <- Tlb.grants ctx.tlb ~vpn ~write:true;
  ctx.lp_page <- page;
  ctx.lp_twin <- twin;
  ctx.lp_fowner <- fowner;
  ctx.lp_mgen <- Atomic.get ctx.m.gen;
  ctx.lp_tgen <- Tlb.generation ctx.tlb

(* Single-SSMP (C = P) accesses bypass the software protocol entirely —
   the paper's 32-processor runs substitute null MGS calls — paying only
   translation, a one-time mapping fill, and hardware coherence. *)
let access_single ctx ~write ~vpn ~addr =
  let m = ctx.m in
  let c = m.costs in
  let se = get_sentry m vpn in
  if not (Tlb.grants ctx.tlb ~vpn ~write:false) then begin
    Cpu.advance ctx.cpu User (c.svm.table_lookup + c.svm.tlb_write);
    Tlb.fill ctx.tlb ~vpn ~mode:Tlb.Rw
  end;
  let frame_owner = local_idx m se.s_home_proc in
  let kind = if write then Coherence.Write else Coherence.Read in
  let stall = Coherence.access ctx.cache ~proc:ctx.lidx ~addr ~frame_owner ~kind in
  Cpu.advance ctx.cpu User stall;
  lp_refill ctx ~vpn ~page:se.s_master ~twin:None ~fowner:frame_owner;
  se.s_master

(* Multi-SSMP accesses: TLB hit or MGS fault, then hardware coherence
   against the SSMP's copy. *)
let access_multi ctx ~write ~vpn ~addr =
  let m = ctx.m in
  let s = Topology.ssmp_of_proc m.topo ctx.proc in
  if not (Tlb.grants ctx.tlb ~vpn ~write) then Protocol.fault m ~proc:ctx.proc ~vpn ~write;
  let ce = get_centry m s vpn in
  let data = match ce.cdata with Some d -> d | None -> assert false in
  (* Maintain the twin's dirty-word bitmap on every store, so the diff
     at release time scans only the touched words. *)
  (if write then
     match ce.ctwin with
     | Some t -> Pagedata.mark t (Geom.offset_of_addr m.geom addr)
     | None -> ());
  let kind = if write then Coherence.Write else Coherence.Read in
  let stall =
    Coherence.access ctx.cache ~proc:ctx.lidx ~addr ~frame_owner:ce.frame_owner ~kind
  in
  Cpu.advance ctx.cpu User stall;
  lp_refill ctx ~vpn ~page:data ~twin:ce.ctwin ~fowner:ce.frame_owner;
  data

(* Resolve [addr] to its data frame, charging translation, the fault (if
   any) and the coherence stall.  Returns the page; the caller indexes
   it with [Geom.offset_of_addr] — no tuple, no option, so a fast-path
   access allocates nothing. *)
let locate ctx ~write ~kind addr =
  let m = ctx.m in
  if addr < 0 || addr >= Allocator.words_allocated m.heap then
    invalid_arg (Printf.sprintf "Api: address %d outside the shared heap" addr);
  Cpu.sync_busy ctx.cpu;
  ctx.ops <- ctx.ops + 1;
  if ctx.ops land ctx.yield_mask = 0 then
    Mgs_engine.Fiber.sleep_until m.sim ctx.cpu.Cpu.clock;
  Cpu.advance ctx.cpu User (Mgs_svm.Translate.cost m.costs kind);
  let vpn = Geom.vpn_of_addr m.geom addr in
  if
    vpn = ctx.lp_vpn
    && ctx.lp_mgen = Atomic.get m.gen
    && ctx.lp_tgen = Tlb.generation ctx.tlb
    && ((not write) || ctx.lp_rw)
    && !fast_path_enabled
  then begin
    (if write then
       match ctx.lp_twin with
       | Some t -> Pagedata.mark t (Geom.offset_of_addr m.geom addr)
       | None -> ());
    let stall =
      Coherence.access ctx.cache ~proc:ctx.lidx ~addr ~frame_owner:ctx.lp_fowner
        ~kind:(if write then Coherence.Write else Coherence.Read)
    in
    Cpu.advance ctx.cpu User stall;
    ctx.lp_page
  end
  else if ctx.single then access_single ctx ~write ~vpn ~addr
  else access_multi ctx ~write ~vpn ~addr

let read ctx ?(kind = Mgs_svm.Translate.Array) addr =
  let page = locate ctx ~write:false ~kind addr in
  let v = page.(Geom.offset_of_addr ctx.m.geom addr) in
  (match ctx.m.shadow with
  | Some h ->
    let expect = match Hashtbl.find h addr with v -> v | exception Not_found -> 0.0 in
    if Int64.bits_of_float v <> Int64.bits_of_float expect then begin
      (* the shadow heap forces one domain, so a plain increment is safe *)
      ctx.m.shadow_errors <- ctx.m.shadow_errors + 1;
      Printf.eprintf "SHADOW t=%d proc=%d addr=%d vpn=%d read=%.17g expect=%.17g\n%!"
        (Sim.now ctx.m.sim) ctx.proc addr
        (Geom.vpn_of_addr ctx.m.geom addr)
        v expect
    end
  | None -> ());
  v

let write ctx ?(kind = Mgs_svm.Translate.Array) addr v =
  let page = locate ctx ~write:true ~kind addr in
  (match ctx.m.shadow with Some h -> Hashtbl.replace h addr v | None -> ());
  page.(Geom.offset_of_addr ctx.m.geom addr) <- v

let read_int ctx ?kind addr = int_of_float (read ctx ?kind addr)

let write_int ctx ?kind addr v = write ctx ?kind addr (float_of_int v)
