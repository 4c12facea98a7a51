(* Shard-safe observability: with trace, spans, and metrics installed,
   the engine keeps running on par_jobs domains — no forcing — and
   every export is byte-identical to the single-domain run's:

   - full machines: chrome JSON, span dump, metrics CSV, and the
     histogram summary at par 2 and 4 against par 1, for every
     protocol x app cell and for faulty cells on a lossy LAN, and the
     metrics CSV of a kv cell whose homes migrate, and of a run that
     folds its sample window;
   - every lock kind under the parallel engine (the paper's workloads
     barely contend, so a dedicated contended run covers the lock
     protocols);
   - raw engine: a qcheck micro-DAG emitting into a per-shard trace,
     with delays piled onto same-cycle and window-edge collisions —
     the merged key order must equal the reference model's
     execution order at every job count. *)

module Sim = Mgs_engine.Sim
module Trace = Mgs_obs.Trace
module Locks = Mgs_sync.Locks

(* --- export identity on full machines ------------------------------ *)

let exports ?faults ~protocol ~par w =
  let cfg =
    Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par
      ~protocol:(Mgs.Protocol.proto_of_name protocol) ?faults ~nprocs:8 ~cluster:2 ()
  in
  let m = Mgs.Machine.create cfg in
  let tr = Mgs.Machine.enable_trace m in
  let mt = Mgs.Machine.enable_metrics m in
  let body, check = w.Mgs_harness.Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  Mgs.Machine.assert_quiescent m;
  check m;
  let sp = Trace.spans tr in
  ( Trace.chrome_json tr,
    Mgs_obs.Span.json sp,
    Mgs_obs.Metrics.csv mt,
    Format.asprintf "%a" Trace.pp_summary tr )

let apps =
  [
    ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
    ("water", Mgs_apps.Water.workload Mgs_apps.Water.tiny);
    ("tsp", Mgs_apps.Tsp.workload Mgs_apps.Tsp.tiny);
  ]

let protocols = [ "mgs"; "hlrc"; "ivy" ]

let check_identity ?faults ~protocol (aname, w) =
  let c0, s0, m0, h0 = exports ?faults ~protocol ~par:1 w in
  List.iter
    (fun par ->
      let c, s, mm, h = exports ?faults ~protocol ~par w in
      let lbl what =
        Printf.sprintf "%s/%s%s par=%d: %s identical" protocol aname
          (if faults = None then "" else "/faults")
          par what
      in
      Alcotest.(check string) (lbl "chrome") c0 c;
      Alcotest.(check string) (lbl "spans") s0 s;
      Alcotest.(check string) (lbl "metrics csv") m0 mm;
      Alcotest.(check string) (lbl "summary") h0 h)
    [ 2; 4 ]

let test_export_identity () =
  List.iter (fun protocol -> List.iter (check_identity ~protocol) apps) protocols

(* A lossy LAN adds retransmissions to the trace and spans and the
   net.* columns to the metrics; each SSMP's cell samples only its own
   transport state, so these exports are par-identical too. *)
let test_faulty_export_identity () =
  let faults = Mgs_net.Fault.of_string "drop=0.05,dup=0.05,delay=0.1:2000,reorder=0.05" in
  List.iter
    (fun (protocol, aname) -> check_identity ~faults ~protocol (aname, List.assoc aname apps))
    [ ("mgs", "jacobi"); ("hlrc", "water"); ("hlrc", "tsp") ]

(* Home migration moves a server entry's REL_IN_PROG transitions to
   another shard; the gauge counts them on whichever shard makes them,
   so the series stays par-identical.  The contended skewed kv cell
   migrates ten homes; metrics alone, so no trace is recorded. *)
let test_migration_metrics_identity () =
  let module Kv = Mgs_serve.Kv in
  let p =
    {
      Kv.default with
      Kv.nkeys = 16;
      nshards = 1;
      stripes = 16;
      ops = 300;
      get_pct = 5;
      put_pct = 95;
      theta = 1.1;
      churn = 0;
      period = 2_000;
    }
  in
  let csv par =
    let cfg =
      Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~adapt:true ~nprocs:8 ~cluster:2 ()
    in
    let m = Mgs.Machine.create cfg in
    let mt = Mgs.Machine.enable_metrics m in
    let body, check = (Kv.workload p).Mgs_harness.Sweep.prepare m in
    let r = Mgs.Machine.run m body in
    Mgs.Machine.assert_quiescent m;
    check m;
    (r.Mgs.Report.pstats.Mgs.Pstats.adapt_migs, Mgs_obs.Metrics.csv mt)
  in
  let migs, c1 = csv 1 in
  Alcotest.(check bool) "homes migrated" true (migs > 0);
  List.iter
    (fun par ->
      Alcotest.(check string) (Printf.sprintf "kv/adapt par=%d: metrics csv identical" par) c1
        (snd (csv par)))
    [ 2; 4 ]

(* A run longer than its window folds it.  With room for 16 rows,
   water at P=8 C=2 doubles its interval several times; each SSMP's
   cell folds at the same boundary index whatever its shard's pace, so
   the CSV is identical at par 1 and 2, and it equals the CSV of a
   sampler created at the final interval. *)
let test_folded_metrics_identity () =
  let run ?interval ~max_samples par =
    let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:8 ~cluster:2 () in
    let m = Mgs.Machine.create cfg in
    let mt = Mgs.Machine.enable_metrics ?interval ~max_samples m in
    let body, check = (List.assoc "water" apps).Mgs_harness.Sweep.prepare m in
    ignore (Mgs.Machine.run m body);
    check m;
    mt
  in
  let mt = run ~max_samples:16 1 in
  let iv = Mgs_obs.Metrics.interval mt and c1 = Mgs_obs.Metrics.csv mt in
  Alcotest.(check bool) "the window folded" true (iv > 10_000 && Mgs_obs.Metrics.dropped mt > 0);
  Alcotest.(check string) "folded metrics csv identical at par 2" c1
    (Mgs_obs.Metrics.csv (run ~max_samples:16 2));
  Alcotest.(check string) "same rows as a sampler at the final interval"
    (Mgs_obs.Metrics.csv (run ~interval:iv ~max_samples:4096 1))
    c1

(* --- locks under the parallel engine ---------------------------------- *)

(* Eight fibers on four shards each take a lock twice, staggered so
   that acquires from different SSMPs contend; the traced, metered run
   must be byte-identical for any job count.  The shared host counter
   is safe: every access happens inside the lock's critical section,
   which the handoff messages causally order across shards. *)
let contended ~par kind =
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  let tr = Mgs.Machine.enable_trace m in
  let mt = Mgs.Machine.enable_metrics m in
  let lock = Locks.make m kind in
  let entered = ref 0 in
  let report =
    Mgs.Machine.run m (fun ctx ->
        let p = Mgs.Api.proc ctx in
        for _ = 1 to 2 do
          Mgs.Api.compute ctx ((p + 1) * 700);
          Locks.acquire ctx lock;
          incr entered;
          Mgs.Api.compute ctx 500;
          Locks.release ctx lock
        done)
  in
  Mgs.Machine.assert_quiescent m;
  ( Printf.sprintf "entered=%d acquires=%d handoffs=%d" !entered
      report.Mgs.Report.lock_acquires (Locks.handoffs lock),
    Trace.chrome_json tr,
    Mgs_obs.Metrics.csv mt )

let check_lock_par kind =
  let name = Locks.name_of kind in
  let i0, c0, m0 = contended ~par:1 kind in
  Alcotest.(check string) (name ^ ": every acquire entered") "entered=16" (String.sub i0 0 10);
  List.iter
    (fun par ->
      let i, c, mm = contended ~par kind in
      Alcotest.(check string) (Printf.sprintf "%s par=%d: counters" name par) i0 i;
      Alcotest.(check string) (Printf.sprintf "%s par=%d: chrome" name par) c0 c;
      Alcotest.(check string) (Printf.sprintf "%s par=%d: metrics" name par) m0 mm)
    [ 2; 4 ]

let test_lock_par () = check_lock_par Locks.Mcs

let test_every_lock_par () = List.iter check_lock_par Locks.all

(* --- raw engine: same-cycle cross-shard emit ordering -------------- *)

(* Random event forests where delays land on the same cycle and on
   lookahead-window edges, each execution emitting into a per-shard
   trace cell.  The merged order (event keys) must equal the
   reference model's execution order at every job count. *)

type node = { hop : int; (* 0 = stay; k > 0 = (shard + k) mod n *) pad : int; kids : node list }

let la = 100

let gen_node : node QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
      let* hop = frequency [ (3, pure 0); (2, int_range 1 3) ] in
      let* pad = oneofl [ 0; 0; 1; la - 1; la; la + 1; 2 * la ] in
      let* kids = if n = 0 then pure [] else list_size (int_bound 3) (self (n - 1)) in
      pure { hop; pad; kids })

let gen_plan : (int * int * node) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 1 10)
    (let* shard = int_bound 3 in
     let* t = oneofl [ 0; 0; 1; la; (2 * la) + 1 ] in
     let* n = gen_node in
     pure (shard, t, n))

(* The reference model logs "id@time" in execution order; the engine
   emits the same into the trace and is read back merged. *)
let run_traced ~engine plan =
  let nshards = 4 in
  let sim = Sim.create () and r = Refsim.create ~shards:nshards in
  let tr = Trace.create ~capacity:8192 ~cells:nshards () in
  let log = ref [] in
  let now, at_shard, emit =
    match engine with
    | `Ref ->
      ( (fun () -> Refsim.now r),
        Refsim.at_shard r,
        fun id -> log := Printf.sprintf "%d@%d" id (Refsim.now r) :: !log )
    | `Jobs j ->
      Sim.make_sharded sim ~nshards ~lookahead:la;
      Sim.set_jobs sim j;
      ( (fun () -> Sim.now sim),
        Sim.at_shard sim,
        fun id ->
          Trace.emit tr ~time:(Sim.now sim) ~engine:Mgs_obs.Event.Network
            ~tag:(string_of_int id) ~vpn:(-1) ~src:(-1) ~dst:(-1) ~src_ssmp:(-1) ~dst_ssmp:(-1)
            ~words:0 ~cost:0 ~dur:0 ~txn:(-1) )
  in
  let rec exec id ~shard node () =
    emit id;
    List.iteri
      (fun i kid ->
        let dst = (shard + kid.hop) mod nshards in
        let d = if kid.hop = 0 then kid.pad else la + kid.pad in
        at_shard ~shard:dst (now () + d) (exec ((id * 8) + i + 1) ~shard:dst kid))
      node.kids
  in
  List.iteri (fun i (shard, t, n) -> at_shard ~shard t (exec (i * 1000) ~shard n)) plan;
  match engine with
  | `Ref ->
    Refsim.run r;
    List.rev !log
  | `Jobs _ ->
    ignore (Sim.run sim ());
    List.map
      (fun (e : Mgs_obs.Event.t) ->
        Printf.sprintf "%s@%d" e.Mgs_obs.Event.tag e.Mgs_obs.Event.time)
      (Trace.events tr)

let prop_emit_order =
  QCheck2.Test.make ~name:"merged emit order identical for any job count" ~count:120
    gen_plan (fun plan ->
      let oracle = run_traced ~engine:`Ref plan in
      List.for_all (fun j -> run_traced ~engine:(`Jobs j) plan = oracle) [ 1; 2; 4 ])

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_emit_order ]

let () =
  Alcotest.run "obs-par"
    [
      ( "identity",
        [
          Alcotest.test_case "protocol x app export matrix" `Quick test_export_identity;
          Alcotest.test_case "export matrix under faults" `Quick test_faulty_export_identity;
          Alcotest.test_case "metrics under home migration" `Quick
            test_migration_metrics_identity;
          Alcotest.test_case "a folded metrics window" `Quick test_folded_metrics_identity;
          Alcotest.test_case "mcs lock under par" `Quick test_lock_par;
          Alcotest.test_case "every lock under par" `Quick test_every_lock_par;
        ] );
      ("emit-order", qsuite);
    ]
