(* Tests for the experiment harness: the framework metrics (section 2.4)
   on synthetic runtime curves, sweep mechanics, and figure rendering. *)

module Sweep = Mgs_harness.Sweep
module Figures = Mgs_harness.Figures

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_clusters_of () =
  Alcotest.(check (list int)) "powers of two" [ 1; 2; 4; 8; 16; 32 ] (Sweep.clusters_of 32);
  Alcotest.(check (list int)) "single" [ 1 ] (Sweep.clusters_of 1)

(* A synthetic curve with known metrics: P=8, T(8)=100, T(4)=400
   (breakup 300%), T(1)=800 (potential (800-400)/400 = 100%). *)
let curve_concave = [ (1, 800); (2, 790); (4, 400); (8, 100) ]

let curve_convex = [ (1, 800); (2, 420); (4, 400); (8, 100) ]

let test_metrics_values () =
  Alcotest.(check (float 1e-9)) "breakup" 3.0 (Sweep.breakup_penalty_rt curve_concave);
  Alcotest.(check (float 1e-9)) "potential" 1.0 (Sweep.multigrain_potential_rt curve_concave);
  Alcotest.(check int) "runtime_of" 400 (Sweep.runtime_of_rt curve_concave 4)

let test_curvature_classes () =
  (* concave: the interior point (C=2) sits above the chord *)
  Alcotest.(check string) "concave" "concave" (Sweep.curvature_class_rt curve_concave);
  Alcotest.(check string) "convex" "convex" (Sweep.curvature_class_rt curve_convex);
  let linear = [ (1, 800); (2, 600); (4, 400); (8, 100) ] in
  Alcotest.(check string) "linear in log C is flat" "flat" (Sweep.curvature_class_rt linear)

let test_runtime_of_missing () =
  Alcotest.check_raises "missing cluster"
    (Invalid_argument "Sweep.runtime_of: no point at cluster size 16 (have 1, 2, 4, 8)")
    (fun () -> ignore (Sweep.runtime_of_rt curve_concave 16))

(* A trivial workload for sweep mechanics. *)
let trivial_workload =
  let prepare m =
    let cell = Mgs.Machine.alloc m ~words:4 ~home:Mgs_mem.Allocator.Interleaved in
    let bar = Mgs_sync.Barrier.create m in
    let body ctx =
      let p = Mgs.Api.proc ctx in
      Mgs.Api.write ctx (cell + p) (float_of_int p);
      Mgs_sync.Barrier.wait ctx bar
    in
    let check m =
      for p = 0 to 3 do
        if Mgs.Machine.peek m (cell + p) <> float_of_int p then failwith "bad cell"
      done
    in
    (body, check)
  in
  { Sweep.name = "trivial"; prepare }

let test_sweep_mechanics () =
  let points = Sweep.sweep ~nprocs:4 trivial_workload in
  Alcotest.(check (list int)) "all cluster sizes" [ 1; 2; 4 ]
    (List.map (fun p -> p.Sweep.cluster) points);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "positive runtime at C=%d" p.Sweep.cluster)
        true
        (p.Sweep.report.Mgs.Report.runtime > 0))
    points

let test_sweep_custom_clusters () =
  let points = Sweep.sweep ~clusters:[ 2; 4 ] ~nprocs:4 trivial_workload in
  Alcotest.(check (list int)) "restricted" [ 2; 4 ]
    (List.map (fun p -> p.Sweep.cluster) points)

let test_sweep_throughput_counters () =
  let points = Sweep.sweep ~nprocs:4 trivial_workload in
  List.iter
    (fun p ->
      let r = p.Sweep.report in
      Alcotest.(check bool)
        (Printf.sprintf "events executed at C=%d" p.Sweep.cluster)
        true
        (r.Mgs.Report.sim_events > 0);
      Alcotest.(check bool)
        (Printf.sprintf "peak queue at C=%d" p.Sweep.cluster)
        true
        (r.Mgs.Report.peak_queue > 0);
      Alcotest.(check bool)
        (Printf.sprintf "wall time measured at C=%d" p.Sweep.cluster)
        true
        (r.Mgs.Report.wall_seconds >= 0.))
    points;
  let r = (List.hd points).Sweep.report in
  let line = Format.asprintf "%a" Mgs.Report.pp_throughput r in
  Alcotest.(check bool) "throughput line mentions events" true (contains line "events=");
  Alcotest.(check bool) "throughput line mentions peak queue" true
    (contains line "peak_queue=")

(* -j N must be a pure implementation detail: the parallel sweep renders
   byte-for-byte what the sequential one does (wall_seconds is excluded
   from figures and CSV) *)
let test_sweep_jobs_deterministic () =
  let seq = Sweep.sweep ~jobs:1 ~nprocs:4 trivial_workload in
  let par = Sweep.sweep ~jobs:4 ~nprocs:4 trivial_workload in
  Alcotest.(check string) "breakdown figure identical"
    (Figures.breakdown_figure ~title:"t" seq)
    (Figures.breakdown_figure ~title:"t" par);
  Alcotest.(check string) "csv identical"
    (Figures.csv_of_sweep ~name:"t" seq)
    (Figures.csv_of_sweep ~name:"t" par);
  Alcotest.(check string) "lock figure identical"
    (Figures.lock_figure [ ("t", seq) ])
    (Figures.lock_figure [ ("t", par) ])

(* The observability exports must be part of the same guarantee: a
   sweep point run on a helper domain produces byte-identical span,
   metrics, and Chrome dumps. *)
let test_export_jobs_deterministic () =
  let run_exports cluster =
    let cfg = Mgs.Machine.config ~nprocs:4 ~cluster () in
    let m = Mgs.Machine.create cfg in
    let tr = Mgs.Machine.enable_trace m in
    let mt = Mgs.Machine.enable_metrics ~interval:1000 m in
    let body, check = trivial_workload.Sweep.prepare m in
    ignore (Mgs.Machine.run m body);
    check m;
    ( Mgs_obs.Span.json (Mgs_obs.Trace.spans tr),
      Mgs_obs.Metrics.csv mt,
      Mgs_obs.Trace.chrome_json tr )
  in
  let clusters = [ 1; 2; 4 ] in
  let seq = Mgs_util.Dpool.map ~jobs:1 run_exports clusters in
  let par = Mgs_util.Dpool.map ~jobs:4 run_exports clusters in
  List.iteri
    (fun i ((s1, m1, c1), (s2, m2, c2)) ->
      let at what = Printf.sprintf "%s identical at C=%d" what (List.nth clusters i) in
      Alcotest.(check string) (at "span dump") s1 s2;
      Alcotest.(check string) (at "metrics csv") m1 m2;
      Alcotest.(check string) (at "chrome trace") c1 c2)
    (List.combine seq par)

let test_fault_latency_renders () =
  let b =
    {
      Mgs_obs.Span.faults = 2;
      e2e = 2000;
      local = 400;
      wire = 500;
      dma = 600;
      server = 300;
      remote = 100;
      queue = 60;
      residual = 40;
    }
  in
  let fig = Figures.fault_latency [ (1, b); (16, Mgs_obs.Span.zero_breakdown) ] in
  Alcotest.(check bool) "title" true (contains fig "fault latency breakdown");
  Alcotest.(check bool) "per-fault e2e" true (contains fig "1000");
  Alcotest.(check bool) "coverage column" true (contains fig "98.0%");
  (* a cluster size with no remote faults renders as dashes, full coverage *)
  Alcotest.(check bool) "empty row dashes" true (contains fig "-");
  Alcotest.(check bool) "empty row coverage" true (contains fig "100.0%")

let test_ablation_jobs_deterministic () =
  let run jobs =
    Mgs_harness.Ablation.run ~clusters:[ 1; 2; 4 ] ~jobs ~nprocs:4
      ~variants:(Mgs_harness.Ablation.protocol_study ())
      trivial_workload
  in
  Alcotest.(check string) "ablation table identical" (run 1) (run 4)

(* The latency study has a zero-latency variant, which leaves the engine
   no lookahead window: it runs on one domain whatever [par] asks, and
   the table is the same. *)
let test_ablation_par_zero_latency () =
  let run par =
    Mgs_harness.Ablation.run ~clusters:[ 1; 2; 4 ] ~par ~nprocs:4
      ~variants:(Mgs_harness.Ablation.latency_study ())
      trivial_workload
  in
  Alcotest.(check string) "latency study identical at par 2" (run 1) (run 2)

let test_figures_render () =
  let points = Sweep.sweep ~nprocs:4 trivial_workload in
  let fig = Figures.breakdown_figure ~title:"Trivial" points in
  Alcotest.(check bool) "title present" true (contains fig "Trivial");
  Alcotest.(check bool) "metric line present" true (contains fig "breakup penalty");
  Alcotest.(check bool) "legend present" true (contains fig "legend:");
  let lockfig = Figures.lock_figure [ ("trivial", points) ] in
  Alcotest.(check bool) "lock figure has app row" true (contains lockfig "trivial");
  let t4 =
    Figures.table4
      [ { Figures.app = "X"; problem_size = "small"; seq_runtime = 1000; speedup = 3.5 } ]
  in
  Alcotest.(check bool) "table4 row" true (contains t4 "3.5");
  let summary = Figures.metrics_summary [ ("trivial", points) ] in
  Alcotest.(check bool) "summary header" true (contains summary "Multigrain potential")

let test_csv_and_messages () =
  let points = Sweep.sweep ~nprocs:4 trivial_workload in
  let csv = Figures.csv_of_sweep ~name:"trivial" points in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + one line per cluster" 4 (List.length lines);
  Alcotest.(check bool) "header columns" true
    (List.hd lines = "app,cluster,runtime,user,lock,barrier,mgs,lan_messages,lan_words,lock_hit_ratio");
  let mix = Figures.message_mix points in
  Alcotest.(check bool) "mix mentions a protocol tag" true
    (let has sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "BAR_COMBINE" mix || has "RREQ" mix)

let test_ablation_run () =
  let out =
    Mgs_harness.Ablation.run ~clusters:[ 1; 2; 4 ] ~nprocs:4
      ~variants:(Mgs_harness.Ablation.protocol_study ())
      trivial_workload
  in
  let has sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "columns for each variant" true
    (has "MGS (eager RC)" && has "HLRC (lazy RC)" && has "Ivy (SC)");
  Alcotest.(check bool) "metric rows" true (has "breakup" && has "potential")

(* Chaos sweep: every point must terminate deterministically (chaos
   itself re-runs each point and failwiths on divergence), intensity 0
   must be the faults-off machine exactly, and a hot enough fault plan
   must actually exercise the retry/dedup machinery. *)
let test_chaos_sweep () =
  let points =
    Sweep.chaos ~intensities:[ 0.0; 4.0 ] ~check:true ~seed:11 ~nprocs:4 ~cluster:2
      trivial_workload
  in
  Alcotest.(check int) "one point per intensity" 2 (List.length points);
  List.iter
    (fun (cp : Sweep.chaos_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "completed at intensity %.2f" cp.Sweep.intensity)
        true
        (Mgs.Report.completed cp.Sweep.point.Sweep.report))
    points;
  let quiet = List.hd points and hot = List.nth points 1 in
  let stats (cp : Sweep.chaos_point) =
    let ps = cp.Sweep.point.Sweep.report.Mgs.Report.pstats in
    (ps.Mgs.Pstats.net_retries, ps.Mgs.Pstats.net_dups, ps.Mgs.Pstats.net_timeouts)
  in
  Alcotest.(check (triple int int int)) "intensity 0 is the perfect wire" (0, 0, 0) (stats quiet);
  let retries, dups, _ = stats hot in
  Alcotest.(check bool) "hot plan retransmits" true (retries > 0);
  Alcotest.(check bool) "hot plan drops duplicates" true (dups > 0);
  let table = Format.asprintf "%a" Sweep.pp_chaos_table points in
  Alcotest.(check bool) "table has header and outcomes" true
    (contains table "intensity" && contains table "completed");
  Alcotest.(check int) "one table row per point" 3
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' table)))

let test_micro_structure () =
  let ms = Mgs_harness.Micro.run_all () in
  Alcotest.(check int) "twelve Table 3 rows" 12 (List.length ms);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Mgs_harness.Micro.name ^ " measured positive")
        true
        (m.Mgs_harness.Micro.measured > 0))
    ms

let () =
  Alcotest.run "harness"
    [
      ( "metrics",
        [
          Alcotest.test_case "clusters_of" `Quick test_clusters_of;
          Alcotest.test_case "breakup/potential" `Quick test_metrics_values;
          Alcotest.test_case "curvature classes" `Quick test_curvature_classes;
          Alcotest.test_case "missing point" `Quick test_runtime_of_missing;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "mechanics" `Quick test_sweep_mechanics;
          Alcotest.test_case "custom clusters" `Quick test_sweep_custom_clusters;
          Alcotest.test_case "throughput counters" `Quick test_sweep_throughput_counters;
          Alcotest.test_case "-j determinism (sweep)" `Quick test_sweep_jobs_deterministic;
          Alcotest.test_case "-j determinism (exports)" `Quick
            test_export_jobs_deterministic;
          Alcotest.test_case "-j determinism (ablation)" `Quick
            test_ablation_jobs_deterministic;
          Alcotest.test_case "--par with a zero-latency variant" `Quick
            test_ablation_par_zero_latency;
          Alcotest.test_case "chaos sweep" `Quick test_chaos_sweep;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "figures" `Quick test_figures_render;
          Alcotest.test_case "fault-latency table" `Quick test_fault_latency_renders;
          Alcotest.test_case "csv + message mix" `Quick test_csv_and_messages;
          Alcotest.test_case "ablation table" `Quick test_ablation_run;
          Alcotest.test_case "micro rows" `Quick test_micro_structure;
        ] );
    ]
