open State

type config = {
  nprocs : int;
  cluster : int;
  page_words : int;
  costs : Costs.t;
  features : State.features;
  protocol : State.protocol;
  shadow : bool;
  tlb_entries : int option;
  par_jobs : int;
      (* domains the event engine's per-SSMP shards run on (clamped to
         the SSMP count); results are byte-identical for every value *)
  adapt : bool;
      (* adaptive per-page coherence: online sharing-pattern
         classification, regime switching and home migration.  Off by
         default; off is byte-identical to a build without the layer. *)
  faults : Mgs_net.Fault.spec;
  fault_seed : int;
}

(* Every argument check [create] reaches, run by [config] and again by
   [create] (so a record update cannot skip it), which uses the topology
   and geometry built here by the constructors owning their checks.  A
   TLB is built only for its capacity check. *)
let check cfg =
  if cfg.par_jobs < 1 then invalid_arg "Machine.config: par_jobs < 1";
  if cfg.adapt && cfg.protocol = State.Protocol_ivy then
    invalid_arg
      "Machine.config: protocol \"ivy\" supports no adaptive coherence regime \
       (its single-writer pages have no twins to skip for the single-writer \
       regime and every read already invalidates for the invalidate-on-read \
       regime); --adapt requires mgs or hlrc";
  let topo = Topology.create ~nprocs:cfg.nprocs ~cluster:cfg.cluster in
  let geom = Geom.create ~page_words:cfg.page_words () in
  ignore (Tlb.create ?capacity:cfg.tlb_entries ());
  Coherence.check_costs cfg.costs;
  (* the bounds of [Sim.make_sharded] and [Am.create] *)
  if cfg.costs.Costs.lan.Costs.latency < 0 then invalid_arg "Machine.config: lan_latency < 0";
  if topo.Topology.nssmps > Mgs_engine.Shardq.max_shards then
    invalid_arg "Machine.config: more SSMPs than the engine has shards";
  if cfg.nprocs > Am.max_procs then
    invalid_arg (Printf.sprintf "Machine.config: nprocs > %d" Am.max_procs);
  (topo, geom)

let config ?(page_words = 256) ?(costs = Costs.default) ?lan_latency
    ?(shadow = match Sys.getenv_opt "MGS_SHADOW" with Some "1" -> true | _ -> false)
    ?(features = State.default_features) ?(protocol = State.Protocol_mgs) ?tlb_entries
    ?(par_jobs = 1) ?(adapt = false) ?(faults = Mgs_net.Fault.none) ?(fault_seed = 42)
    ~nprocs ~cluster () =
  let costs =
    match lan_latency with None -> costs | Some d -> Costs.with_lan_latency costs d
  in
  let cfg =
    {
      nprocs;
      cluster;
      page_words;
      costs;
      features;
      protocol;
      shadow;
      tlb_entries;
      par_jobs;
      adapt;
      faults;
      fault_seed;
    }
  in
  ignore (check cfg);
  cfg

type t = State.t

let create cfg =
  let topo, geom = check cfg in
  let sim = Sim.create () in
  (* shard per SSMP; the fixed inter-SSMP LAN latency is the
     conservative lookahead window (every cross-SSMP delivery pays at
     least that much wire time, so events a shard runs inside a window
     cannot affect another shard within it) *)
  Sim.make_sharded sim ~nshards:topo.Topology.nssmps
    ~lookahead:cfg.costs.Costs.lan.Costs.latency;
  let cpus = Array.init cfg.nprocs Cpu.create in
  let caches =
    Array.init topo.Topology.nssmps (fun _ ->
        Coherence.create cfg.costs geom ~cluster:cfg.cluster)
  in
  let lan = Lan.create sim cfg.costs ~nssmps:topo.Topology.nssmps in
  (* a zero spec installs nothing: the faults-free machine, byte for byte *)
  if not (Mgs_net.Fault.is_zero cfg.faults) then
    Lan.set_fault_plan lan
      (Mgs_net.Fault.make cfg.faults ~seed:cfg.fault_seed ~nssmps:topo.Topology.nssmps);
  let am = Am.create sim cfg.costs topo ~lan ~cpus in
  let clients =
    Array.init topo.Topology.nssmps (fun s ->
        { cl_id = s; cl_pages = Inttbl.create 256; k_map = Hashtbl.create 256 })
  in
  let duqs =
    Array.init cfg.nprocs (fun _ ->
        { duq_set = Inttbl.create 64; duq_q = Queue.create (); psync = Hashtbl.create 64 })
  in
  let m =
    {
      sim;
      costs = cfg.costs;
      features = cfg.features;
      protocol = cfg.protocol;
      geom;
      topo;
      heap = Allocator.create geom ~nprocs:cfg.nprocs;
      cpus;
      caches;
      lan;
      am;
      clients;
      duqs;
      servers = [||];
      tlbs = Array.init cfg.nprocs (fun _ -> Tlb.create ?capacity:cfg.tlb_entries ());
      counters = Array.init topo.Topology.nssmps (fun _ -> Array.make Pstats.ncols 0);
      rel_resume = Array.make cfg.nprocs None;
      home_frames = Array.make topo.Topology.nssmps [];
      ran = false;
      par_jobs = cfg.par_jobs;
      shadow = cfg.shadow;
      shadow_errors = Array.make topo.Topology.nssmps 0;
      check = None;
      obs = None;
      store = None;
      metrics = None;
      adapt =
        (if cfg.adapt then
           Some (Mgs_cache.Adapt.create ~nssmps:topo.Topology.nssmps)
         else None);
      gen = Atomic.make 0;
    }
  in
  m

let sim (m : t) = m.sim

(* One cell per SSMP: each engine shard writes into its own cell and
   exports merge on event-key stamps, so the store does not force the
   engine onto one domain. *)
let enable_spans (m : t) =
  match m.store with
  | Some tr -> tr
  | None ->
    let tr = Mgs_obs.Trace.create ~cells:m.topo.Topology.nssmps () in
    m.store <- Some tr;
    tr

let enable_trace (m : t) =
  match m.obs with
  | Some tr -> tr
  | None ->
    let tr = enable_spans m in
    m.obs <- Some tr;
    Am.set_obs m.am (Some tr);
    Lan.set_obs m.lan (Some tr);
    tr

let trace (m : t) = m.store

(* The sampler rides the engine's per-event hook: before each event
   runs, {!Mgs_obs.Metrics.on_event} snapshots the executing shard's
   cell at every sampling boundary it crossed.  (A self-rescheduling
   simulator event would keep the run alive forever, so the event
   stream is the clock.)  Every probe reads a counter the sampling
   shard keeps anyway — its counter row, its engine and transport
   cells, its processors' queues — so sampling is race-free under the
   parallel engine, costs no walk over pages, servers or locks, and the
   merged series is byte-identical across job counts.  The final
   partial interval is captured by {!run}. *)
let enable_metrics ?interval ?max_samples (m : t) =
  match m.metrics with
  | Some mt -> mt
  | None ->
    let cells = m.topo.Topology.nssmps in
    let mt = Mgs_obs.Metrics.create ?interval ?max_samples ~cells () in
    let probe = Mgs_obs.Metrics.probe_cell mt in
    (* per-shard engine self-profiling; both are deterministic (the
       executed-event and cross-shard-send prefixes at a sampling
       boundary are pure functions of the simulated program) *)
    probe "engine.executed" (fun c -> Sim.shard_executed m.sim c);
    probe "engine.xsends" (fun c -> Sim.shard_xsends m.sim c);
    probe "am.in_flight" (fun c -> Am.in_flight_cell m.am c);
    (* [f] is built once here: a closure made per read would allocate
       at every sample *)
    let per_duq name f =
      let cluster = m.topo.Topology.cluster in
      probe name (fun c ->
          let acc = ref 0 in
          for p = c * cluster to ((c + 1) * cluster) - 1 do
            acc := !acc + f m.duqs.(p)
          done;
          !acc)
    in
    per_duq "duq.entries" (fun d -> Inttbl.length d.duq_set);
    per_duq "duq.psync" (fun d -> Hashtbl.length d.psync);
    let column name k = probe name (fun c -> m.counters.(c).(k)) in
    column "sync.lock_acquires" Pstats.lock_acquires;
    column "sync.lock_hits" Pstats.lock_hits;
    column "sync.barrier_episodes" Pstats.barrier_episodes;
    column "sync.lock_waiters" Pstats.lock_waiters;
    column "pages.inv" Pstats.pages_inv;
    column "pages.read" Pstats.pages_read;
    column "pages.write" Pstats.pages_write;
    column "pages.busy" Pstats.pages_busy;
    column "servers.rel_in_prog" Pstats.rel_in_prog;
    (* open spans of whatever store exists when the cell samples: the
       machine's trace, or an application's own span store *)
    probe "spans.open" (fun c ->
        match m.store with
        | Some tr -> Mgs_obs.Span.open_count_cell (Mgs_obs.Trace.spans tr) c
        | None -> 0);
    (* adaptive-coherence gauges, registered only under --adapt so a
       static run's metrics CSV keeps its exact pre-adapt column set *)
    if Option.is_some m.adapt then begin
      column "adapt.reclass" Pstats.adapt_reclass;
      column "adapt.migs" Pstats.adapt_migs;
      column "adapt.fwds" Pstats.adapt_fwds;
      column "adapt.yields" Pstats.adapt_yields
    end;
    (* transport gauges of a faulted machine: a cell reads its SSMP's
       LAN counters and how many of its messages await an ack *)
    if Option.is_some (Lan.fault_plan m.lan) then begin
      probe "net.retransmits" (fun c -> (Lan.cell m.lan c).Lan.retransmits);
      probe "net.dup_drops" (fun c -> (Lan.cell m.lan c).Lan.dup_drops);
      probe "net.unacked" (fun c -> Lan.unacked_cell m.lan c)
    end;
    Sim.set_on_event m.sim
      (Some (fun ~shard ~now -> Mgs_obs.Metrics.on_event mt ~cell:shard ~now));
    m.metrics <- Some mt;
    mt

let metrics (m : t) = m.metrics

let enable_checker (m : t) = Invariant.attach m

let shadow_mismatches (m : t) = Array.fold_left ( + ) 0 m.shadow_errors
let topo (m : t) = m.topo
let geom (m : t) = m.geom

(* A page's server entry is made here and nowhere else: allocation is
   host-side (apps build their working set in [prepare], before {!run}),
   so a run never changes [servers] — which is what lets concurrent
   shards read it without locks.  The master page starts zero-filled. *)
let alloc (m : t) ~words ~home =
  let addr, homes = Allocator.alloc m.heap ~words ~home in
  let vpn0 = Geom.vpn_of_addr m.geom addr in
  let nssmps = m.topo.Topology.nssmps in
  let sentry i home =
    {
      s_vpn = vpn0 + i;
      s_home_proc = home;
      s_master = Pagedata.create m.geom;
      s_read_dir = Bitset.create nssmps;
      s_write_dir = Bitset.create nssmps;
      s_frame_procs = Inttbl.create 8;
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
      s_cur_home = home;
      s_ad = Option.map (fun _ -> Adapt.new_page ~nssmps) m.adapt;
      s_ext_diffs = [];
      s_retained_notwin = false;
      s_shadow = (if m.shadow then Pagedata.create m.geom else [||]);
    }
  in
  m.servers <- Array.append m.servers (Array.mapi sentry homes);
  addr

let check_addr (m : t) addr =
  if addr < 0 || addr >= Allocator.words_allocated m.heap then
    invalid_arg (Printf.sprintf "Machine: address %d outside the shared heap" addr)

let poke (m : t) addr v =
  check_addr m addr;
  let se = get_sentry m (Geom.vpn_of_addr m.geom addr) in
  let off = Geom.offset_of_addr m.geom addr in
  if m.shadow then se.s_shadow.(off) <- v;
  se.s_master.(off) <- v

let peek (m : t) addr =
  check_addr m addr;
  let vpn = Geom.vpn_of_addr m.geom addr in
  let se = get_sentry m vpn in
  let off = Geom.offset_of_addr m.geom addr in
  (* under the single-writer baseline the owner's copy supersedes the
     master until it is written back *)
  match (m.protocol, Bitset.choose se.s_write_dir) with
  | Protocol_ivy, Some owner -> (
    let ce = get_centry m owner vpn in
    match ce.cdata with Some d -> d.(off) | None -> se.s_master.(off))
  | _ -> se.s_master.(off)

(* A run that executes this many events is taken for a livelock. *)
let event_limit = 500_000_000

(* A machine runs once: its counters, LAN watermarks, fault streams and
   lock queues all start from creation, and nothing restores them. *)
let run (m : t) body =
  if m.ran then invalid_arg "Machine.run: a machine runs once";
  m.ran <- true;
  let t0 = Unix.gettimeofday () in
  (* before any domain starts: cells sample in parallel into stores
     allocated here *)
  Option.iter Mgs_obs.Metrics.freeze m.metrics;
  Sim.set_jobs m.sim m.par_jobs;
  let fibers =
    List.init m.topo.Topology.nprocs (fun p ->
        (* each fiber starts on its processor's SSMP shard *)
        let shard = Topology.ssmp_of_proc m.topo p in
        Mgs_engine.Fiber.spawn m.sim ~shard ~at:0 ~name:(Printf.sprintf "proc%d" p)
          (fun () ->
            let ctx = Api.make_ctx m ~proc:p in
            body ctx;
            Cpu.finish m.cpus.(p)))
  in
  let outcome =
    match Sim.run m.sim ~limit:event_limit () with
    | _ ->
      Mgs_engine.Fiber.check_all_completed fibers;
      Report.Completed
    | exception Lan.Net_partition p ->
      (* a typed outcome, not a hang: fibers are abandoned where they
         stand and the report covers progress up to the partition *)
      Report.Partitioned
        {
          src_ssmp = p.Lan.part_src_ssmp;
          dst_ssmp = p.Lan.part_dst_ssmp;
          tag = p.Lan.part_tag;
          retries = p.Lan.part_retries;
        }
  in
  (* capture the final partial sampling interval *)
  (match m.metrics with
  | Some mt -> Mgs_obs.Metrics.sample mt ~now:(Sim.now m.sim)
  | None -> ());
  Report.of_machine ~wall_seconds:(Unix.gettimeofday () -. t0) ~outcome m

let assert_quiescent (m : t) =
  Array.iteri
    (fun p d ->
      if Inttbl.length d.duq_set <> 0 then
        failwith (Printf.sprintf "proc %d: delayed update queue not empty" p);
      if Hashtbl.length d.psync <> 0 then
        failwith (Printf.sprintf "proc %d: pending-sync set not empty" p))
    m.duqs;
  Array.iter
    (fun cl ->
      Inttbl.iter
        (fun vpn ce ->
          if Mlock.held ce.mlock then
            failwith (Printf.sprintf "SSMP %d page %d: mapping lock still held" cl.cl_id vpn);
          if ce.pstate = P_busy then
            failwith (Printf.sprintf "SSMP %d page %d: still BUSY" cl.cl_id vpn))
        cl.cl_pages)
    m.clients;
  Array.iteri
    (fun vpn se ->
      if se.s_state = S_rel then
        failwith (Printf.sprintf "page %d: server still in REL_IN_PROG" vpn);
      Bitset.iter
        (fun ssmp ->
          let ce = get_centry m ssmp vpn in
          if ce.pstate <> P_read && ce.pstate <> P_write then
            failwith
              (Printf.sprintf "page %d: SSMP %d in a directory without a copy" vpn ssmp))
        se.s_read_dir)
    m.servers;
  (* the gauge columns count what the machine holds: a state write that
     bypasses [set_pstate] / [set_s_state] shows here *)
  List.iter
    (fun (st, name) ->
      let held =
        Array.fold_left
          (fun n cl ->
            Inttbl.fold (fun _ ce n -> if ce.pstate = st then n + 1 else n) cl.cl_pages n)
          0 m.clients
      in
      let counted = total m (pstate_col st) in
      if counted <> held then
        failwith
          (Printf.sprintf "pages.%s column counts %d pages, %d are in that state" name counted
             held))
    [ (P_inv, "inv"); (P_read, "read"); (P_write, "write"); (P_busy, "busy") ];
  List.iter
    (fun (k, name) ->
      let n = total m k in
      if n <> 0 then failwith (Printf.sprintf "%s column is %d at quiescence" name n))
    [ (Pstats.rel_in_prog, "servers.rel_in_prog"); (Pstats.lock_waiters, "sync.lock_waiters") ]
