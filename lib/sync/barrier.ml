open Mgs.State

type blocal = {
  mutable arrived : int;
  waiters : Mgs_engine.Waitq.t;
  staged : (int, int) Hashtbl.t;
      (* HLRC: this SSMP's published write notices, merged into
         [notices] at the combine point.  Staging per SSMP keeps the
         publish local to the arriving fiber's engine shard; only the
         combine handler (which runs at the master's shard, after every
         SSMP's combine message) touches the shared map. *)
}

type t = {
  m : Mgs.State.t;
  locals : blocal array;
  notices : (int, int) Hashtbl.t; (* HLRC: write notices funneled via the barrier *)
  mutable global_arrived : int;
  mutable episodes : int;
}

let create (m : Mgs.Machine.t) =
  {
    m;
    locals =
      Array.init m.topo.Topology.nssmps (fun _ ->
          { arrived = 0; waiters = Mgs_engine.Waitq.create (); staged = Hashtbl.create 16 });
    notices = Hashtbl.create 64;
    global_arrived = 0;
    episodes = 0;
  }

let master_proc b = Topology.first_proc_of_ssmp b.m.topo 0

let release_ssmp b s =
  let loc = b.locals.(s) in
  loc.arrived <- 0;
  ignore (Mgs_engine.Waitq.wake_all b.m.sim loc.waiters)

(* Fold every SSMP's staged notices into the shared map (version
   max-merge, so the SSMP visiting order is immaterial to the content). *)
let merge_staged b =
  Array.iter
    (fun loc ->
      Hashtbl.iter
        (fun vpn v ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt b.notices vpn) in
          if v > prev then Hashtbl.replace b.notices vpn v)
        loc.staged;
      Hashtbl.reset loc.staged)
    b.locals

let on_combine b =
  b.global_arrived <- b.global_arrived + 1;
  if b.global_arrived = b.m.topo.Topology.nssmps then begin
    b.global_arrived <- 0;
    merge_staged b;
    b.episodes <- b.episodes + 1;
    count b.m Mgs.Pstats.barrier_episodes 1;
    obs_emit b.m ~engine:Mgs_obs.Event.Sync ~tag:"sync.barrier_episode"
      ~src:(master_proc b) ~cost:b.episodes ~vpn:(-1) ~dst:(-1) ~words:0 ~dur:0;
    for s = 0 to b.m.topo.Topology.nssmps - 1 do
      Am.post b.m.am ~tag:"BAR_RELEASE" ~src:(master_proc b)
        ~dst:(Topology.first_proc_of_ssmp b.m.topo s)
        ~words:0 ~cost:b.m.costs.sync.barrier_local (fun _t -> release_ssmp b s)
    done
  end

let wait ctx b =
  let m = b.m in
  let cpu = (ctx : Mgs.Api.ctx).cpu in
  let proc = ctx.Mgs.Api.proc in
  Cpu.sync_busy cpu;
  if Topology.single_ssmp m.topo then begin
    (* Flat barrier standing in for P4 on the tightly-coupled machine. *)
    Cpu.advance cpu Barrier m.costs.sync.flat_barrier;
    let root =
      span_open m ~parent:Span.none ~label:"sync.barrier" ~engine:Mgs_obs.Event.Sync
        ~src:proc ()
    in
    span_set m root;
    let loc = b.locals.(0) in
    loc.arrived <- loc.arrived + 1;
    if loc.arrived = m.topo.Topology.nprocs then begin
      b.episodes <- b.episodes + 1;
      count m Mgs.Pstats.barrier_episodes 1;
      obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.barrier_episode" ~src:proc
        ~cost:b.episodes ~vpn:(-1) ~dst:(-1) ~words:0 ~dur:0;
      release_ssmp b 0
    end
    else Mgs_engine.Waitq.park loc.waiters;
    Cpu.resume_charge cpu Barrier (Sim.now m.sim);
    span_close m root;
    span_set m Span.none
  end
  else begin
    (* Release point: make this SSMP's writes visible first (HLRC also
       publishes its write notices into the barrier, staged per SSMP). *)
    let s = Topology.ssmp_of_proc m.topo proc in
    Mgs.Protocol.at_release m ~proc ~notices:b.locals.(s).staged;
    (* Transaction root: this processor's barrier episode, from arrival
       (post-release) to departure. *)
    let root =
      span_open m ~parent:Span.none ~label:"sync.barrier" ~engine:Mgs_obs.Event.Sync
        ~src:proc ~dst:(master_proc b) ()
    in
    span_set m root;
    Cpu.advance cpu Barrier m.costs.sync.barrier_local;
    let loc = b.locals.(s) in
    loc.arrived <- loc.arrived + 1;
    if loc.arrived = m.topo.Topology.cluster then begin
      Cpu.advance cpu Barrier m.costs.proto.msg_send;
      Am.post m.am ~tag:"BAR_COMBINE" ~src:proc ~dst:(master_proc b) ~words:0
        ~cost:m.costs.sync.barrier_local (fun _t -> on_combine b)
    end;
    Mgs_engine.Waitq.park loc.waiters;
    Cpu.resume_charge cpu Barrier (Sim.now m.sim);
    span_set m root;
    (* everyone's notices are now in the barrier's map: apply them *)
    Mgs.Protocol.at_acquire m ~proc ~notices:b.notices;
    span_close m root;
    span_set m Span.none
  end

let episodes b = b.episodes
