(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (section 5) on the simulated DSSMP, plus the
   ablations and extra workloads built on the same framework.

     dune exec bench/main.exe            # everything (default)
     dune exec bench/main.exe -- table3 table4 fig6 ... fig12
     dune exec bench/main.exe -- -j 4 fig9        # sweep points on 4 domains

   Every simulation is self-contained, so -j/--jobs N fans sweep and
   ablation points out over N domains (Mgs_util.Dpool); the printed
   tables are byte-identical to a sequential run.

   Paper targets, for eyeballing:
     Table 3  primitive costs (see printed ratio column)
     Table 4  Jacobi 1618M/30.0  MM 3081M/26.9  TSP 54.2M/23.0
              Water 1993M/26.9  Barnes-Hut 977M/13.8  W-kernel 1540M/26.7
     Fig 6    Jacobi flat, breakup 16%
     Fig 7    MM flat, breakup ~0%
     Fig 8    TSP breakup ~2400%, potential 49%, concave
     Fig 9    Water breakup 322%, potential 67%
     Fig 10   Barnes-Hut breakup 161%, potential 85%, convex
     Fig 11   lock hit ratio rises with C; Water/BH above TSP
     Fig 12   kernel breakup 334% -> 26% with the loop transformation *)

let nprocs = 32

(* set by -j/--jobs before any target runs *)
let jobs = ref 1

module Sweep = Mgs_harness.Sweep
module Figures = Mgs_harness.Figures
module Workload = Mgs_harness.Workload

(* every application is resolved by name through the workload registry;
   the per-app construction boilerplate lives in Mgs_apps.Workloads *)
let () = Mgs_apps.Workloads.ensure ()

let wargs ?size ?iters () = { Workload.default_args with Workload.size; iters }

let wl ?size ?iters name = Workload.instantiate ~args:(wargs ?size ?iters ()) name

(* The paper's machine at [nprocs] processors; a sweep or an ablation
   replaces its cluster size. *)
let machine ?protocol nprocs = Mgs.Machine.config ?protocol ~nprocs ~cluster:1 ()

let sweep ?protocol w = Sweep.sweep ~jobs:!jobs (machine ?protocol nprocs) w

(* Each application's sweep is computed once and shared by every target
   that needs it. *)
let sweep_of w = lazy (sweep w)

let jacobi = sweep_of (wl "jacobi")

let matmul = sweep_of (wl "matmul")

let tsp = sweep_of (wl "tsp")

let water = sweep_of (wl "water")

let barnes = sweep_of (wl "barnes")

let wkern = sweep_of (wl ~size:64 "water-kernel")

let wkern_tiled = sweep_of (wl ~size:64 "water-kernel-tiled")

let table3 () =
  print_endline "=== Table 3: costs of primitive MGS operations ===";
  Mgs_harness.Micro.print_table (Mgs_harness.Micro.run_all ());
  print_newline ()

let seq_runtime w =
  let p = Sweep.run_point (machine 1) w in
  p.Sweep.report.Mgs.Report.runtime

let table4 () =
  print_endline "=== Table 4: applications, sequential runtime, speedup on 32 procs ===";
  let spec app ?size name sweep =
    (app, Workload.problem_size ~args:(wargs ?size ()) name, wl ?size name, sweep)
  in
  let specs =
    [
      spec "Jacobi" "jacobi" jacobi;
      spec "Matrix Multiply" "matmul" matmul;
      spec "TSP" "tsp" tsp;
      spec "Water" "water" water;
      spec "Barnes-Hut" "barnes" barnes;
      spec "Water-kernel" ~size:64 "water-kernel" wkern;
    ]
  in
  (* the sequential runtimes are independent single-point runs: fan them
     out too (the lazy sweeps are forced on this domain only, below) *)
  let seqs = Mgs_util.Dpool.map ~jobs:!jobs (fun (_, _, w, _) -> seq_runtime w) specs in
  let rows =
    List.map2
      (fun (app, size, _, sweep) seq ->
        let t32 = Sweep.runtime_of (Lazy.force sweep) nprocs in
        {
          Figures.app;
          problem_size = size;
          seq_runtime = seq;
          speedup = float_of_int seq /. float_of_int t32;
        })
      specs seqs
  in
  print_string (Figures.table4 rows);
  print_newline ()

let breakdown name sweep () =
  Printf.printf "=== %s ===\n" name;
  print_string (Figures.breakdown_figure ~title:name (Lazy.force sweep));
  print_newline ()

let fig6 = breakdown "Figure 6: Jacobi runtime breakdown" jacobi

let fig7 = breakdown "Figure 7: Matrix Multiply runtime breakdown" matmul

let fig8 = breakdown "Figure 8: TSP runtime breakdown" tsp

let fig9 = breakdown "Figure 9: Water runtime breakdown" water

let fig10 = breakdown "Figure 10: Barnes-Hut runtime breakdown" barnes

let fig11 () =
  print_endline "=== Figure 11: MGS lock hit ratio vs cluster size ===";
  print_string
    (Figures.lock_figure
       [
         ("TSP", Lazy.force tsp);
         ("Water", Lazy.force water);
         ("Barnes-Hut", Lazy.force barnes);
       ]);
  print_newline ()

let fig12 () =
  print_endline "=== Figure 12: Water-kernel, untransformed vs tiled ===";
  print_string
    (Figures.breakdown_figure ~title:"Water-kernel (untransformed)" (Lazy.force wkern));
  print_newline ();
  print_string
    (Figures.breakdown_figure ~title:"Water-kernel (tiled, 2 tiles/SSMP)"
       (Lazy.force wkern_tiled));
  print_newline ()

let locktable () =
  print_endline "=== Lock scalability: handoff latency, hit ratio, fairness ===";
  Printf.printf "-- every lock x protocol at C in {1,4,16}, 16 contending fibers --\n";
  print_string
    (Figures.pp_lock_table
       (Mgs_harness.Micro.lock_family ~jobs:!jobs
          (Mgs_harness.Micro.lock_cluster_specs ())));
  print_newline ();
  Printf.printf "-- contention scaling: 1..64 fibers, C=4, mgs --\n";
  print_string
    (Figures.pp_lock_table
       (Mgs_harness.Micro.lock_family ~jobs:!jobs
          (Mgs_harness.Micro.lock_contention_specs ())));
  print_newline ()

let summary () =
  print_endline "=== Framework metrics summary (paper section 2.4) ===";
  print_string
    (Figures.metrics_summary
       [
         ("Jacobi", Lazy.force jacobi);
         ("Matrix Multiply", Lazy.force matmul);
         ("TSP", Lazy.force tsp);
         ("Water", Lazy.force water);
         ("Barnes-Hut", Lazy.force barnes);
         ("Water-kernel", Lazy.force wkern);
         ("Water-kernel (tiled)", Lazy.force wkern_tiled);
       ]);
  print_newline ()

(* --- ablation studies (design choices from DESIGN.md) --------------- *)

let ablation study name () =
  Printf.printf "=== Ablation: %s ===\n" name;
  let w = wl ~size:64 "water" in
  print_string (Mgs_harness.Ablation.run ~jobs:!jobs (machine 16) ~variants:(study ()) w);
  print_newline ()

let ablation_single_writer =
  ablation Mgs_harness.Ablation.single_writer_study "single-writer optimization (Water)"

let ablation_early_ack =
  ablation Mgs_harness.Ablation.early_ack_study "early read-invalidation ack (Water)"

let ablation_page_size = ablation Mgs_harness.Ablation.page_size_study "page size (Water)"

let ablation_latency =
  ablation Mgs_harness.Ablation.latency_study "inter-SSMP latency (Water)"

let ablation_tlb () =
  Printf.printf "=== Ablation: software TLB capacity (Jacobi) ===\n";
  let w = wl "jacobi" in
  print_string
    (Mgs_harness.Ablation.run ~jobs:!jobs (machine 16)
       ~variants:(Mgs_harness.Ablation.tlb_study ())
       w);
  print_newline ()

let ablation_pipeline () =
  Printf.printf "=== Ablation: serial vs pipelined release (Jacobi) ===\n";
  let w = wl "jacobi" in
  print_string
    (Mgs_harness.Ablation.run ~jobs:!jobs (machine 16)
       ~variants:(Mgs_harness.Ablation.pipelined_release_study ())
       w);
  print_newline ()

let ablation_protocol () =
  Printf.printf "=== Ablation: MGS vs Ivy baseline protocol ===\n";
  print_string
    (Mgs_harness.Ablation.run ~jobs:!jobs (machine 16)
       ~variants:(Mgs_harness.Ablation.protocol_study ())
       (wl ~size:8 "tsp"));
  print_newline ();
  print_string
    (Mgs_harness.Ablation.run ~jobs:!jobs (machine 16)
       ~variants:(Mgs_harness.Ablation.protocol_study ())
       (wl ~size:64 "water"));
  print_newline ()

(* Adaptive-coherence ablation: every paper app static vs adaptive
   across cluster sizes, plus larger machines with the workloads scaled
   the way the perf large-P rows scale them (jacobi one row per
   processor, water capped at 256 molecules) so the grid stays
   tractable.  Large machines run sharded with the invariant checker
   off; P = 16 keeps it on. *)
let adapt_ablation () =
  print_endline "=== Ablation: adaptive vs static per-page coherence ===";
  let grid =
    let paper_apps =
      [
        ("jacobi", wl "jacobi");
        ("water", wl "water");
        ("tsp", wl ~size:9 "tsp");
        ("barnes", wl "barnes");
      ]
    in
    let scaled_apps nprocs =
      [
        ("jacobi", wl ~size:(nprocs + 2) ~iters:2 "jacobi");
        ("water", wl ~size:(min nprocs 256) ~iters:1 "water");
      ]
    in
    List.concat_map
      (fun (nprocs, apps) ->
        List.concat_map
          (fun (name, w) ->
            List.filter_map
              (fun cluster ->
                if cluster > nprocs then None else Some (name, w, nprocs, cluster))
              [ 1; 4; 16 ])
          apps)
      [ (16, paper_apps); (64, scaled_apps 64); (256, scaled_apps 256) ]
  in
  let rows =
    Mgs_util.Dpool.map ~jobs:!jobs
      (fun (name, w, nprocs, cluster) ->
        let par = if nprocs > 16 then 4 else 1 in
        let check = nprocs <= 16 in
        let cell adapt =
          let cfg = Mgs.Machine.config ~par_jobs:par ~adapt ~nprocs ~cluster () in
          (Sweep.run_point ~check cfg w).Sweep.report
        in
        {
          Figures.ar_app = name;
          ar_protocol = Mgs.State.Protocol_mgs;
          ar_procs = nprocs;
          ar_cluster = cluster;
          ar_static = cell false;
          ar_adapt = cell true;
        })
      grid
  in
  print_string (Figures.pp_adapt_table rows);
  print_newline ()

(* LU is not part of the paper's evaluation; provided as an extra
   workload over the same framework. *)
let extra_lu () =
  print_endline "=== Extra: LU decomposition (not in the paper) ===";
  let points = sweep (wl "lu") in
  print_string (Figures.breakdown_figure ~title:"LU, P = 32" points);
  print_newline ()

(* RADIX's permutation phase writes scatter over the whole destination
   array — the worst case for page-grain software shared memory, and
   the sharing pattern where the multiple-writer machinery earns its
   keep.  Shown as a sweep plus the three-protocol comparison. *)
let extra_radix () =
  print_endline "=== Extra: SPLASH-2 RADIX sort (not in the paper) ===";
  let points = sweep (wl "radix") in
  print_string (Figures.breakdown_figure ~title:"Radix, P = 32" points);
  print_newline ();
  print_string
    (Mgs_harness.Ablation.run ~jobs:!jobs (machine 16)
       ~variants:(Mgs_harness.Ablation.protocol_study ())
       (wl ~size:1024 "radix"));
  print_newline ()

let extra_fft () =
  print_endline "=== Extra: six-step FFT (not in the paper) ===";
  let points = sweep (wl "fft") in
  print_string (Figures.breakdown_figure ~title:"FFT, P = 32" points);
  print_newline ()

(* the whole Figure 6-10 evaluation re-run under lazy release
   consistency: what the paper's results would have looked like had MGS
   adopted the TreadMarks-lineage techniques its related work cites *)
let hlrc_figs () =
  print_endline "=== Extra: Figures 6-10 under HLRC (lazy release consistency) ===";
  List.iter
    (fun (name, w) ->
      let points = sweep ~protocol:Mgs.State.Protocol_hlrc w in
      print_string (Figures.breakdown_figure ~title:(name ^ " under HLRC") points);
      print_newline ())
    [ ("Jacobi", wl "jacobi"); ("TSP", wl "tsp"); ("Water", wl "water"); ("Barnes-Hut", wl "barnes") ]

(* beyond the paper's fixed P = 32: scalability in total processors at
   a fixed cluster size (are bigger DSSMPs built from 8-way SSMPs
   worthwhile?) *)
let scaling () =
  print_endline "=== Extra: scaling P at fixed C = 8 (Water) ===";
  let rows =
    Mgs_util.Dpool.map ~jobs:!jobs
      (fun p ->
        let w = wl ~size:64 "water" in
        let cfg = Mgs.Machine.config ~nprocs:p ~cluster:(min 8 p) () in
        let r = (Sweep.run_point cfg w).Sweep.report in
        [
          string_of_int p;
          string_of_int r.Mgs.Report.runtime;
          Printf.sprintf "%.0f" r.Mgs.Report.breakdown.Mgs.Report.mgs;
          string_of_int r.Mgs.Report.lan_messages;
          Printf.sprintf "%.2f" (Mgs.Report.lock_hit_ratio r);
        ])
      [ 8; 16; 32; 64 ]
  in
  Mgs_util.Tableprint.print
    ~header:[ "P"; "runtime"; "MGS cycles/proc"; "LAN msgs"; "lock hit" ]
    ~rows;
  print_newline ()

(* machine-readable export of every sweep for external plotting *)
let csv () =
  print_string
    (String.concat ""
       [
         Figures.csv_of_sweep ~name:"jacobi" (Lazy.force jacobi);
         Figures.csv_of_sweep ~name:"matmul" (Lazy.force matmul);
         Figures.csv_of_sweep ~name:"tsp" (Lazy.force tsp);
         Figures.csv_of_sweep ~name:"water" (Lazy.force water);
         Figures.csv_of_sweep ~name:"barnes" (Lazy.force barnes);
         Figures.csv_of_sweep ~name:"water-kernel" (Lazy.force wkern);
         Figures.csv_of_sweep ~name:"water-kernel-tiled" (Lazy.force wkern_tiled);
         Figures.csv_of_sweep ~name:"radix" (sweep (wl "radix"));
       ])

let messages () =
  print_endline "=== Protocol message mix (Water) ===";
  print_string (Figures.message_mix (Lazy.force water));
  print_newline ();
  print_endline "=== Protocol operation mix (Water) ===";
  print_string (Figures.protocol_ops (Lazy.force water));
  print_newline ()

let targets : (string * (unit -> unit)) list =
  [
    ("table3", table3);
    ("table4", table4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("summary", summary);
    ("locktable", locktable);
    ("ablation-singlewriter", ablation_single_writer);
    ("ablation-earlyack", ablation_early_ack);
    ("ablation-pagesize", ablation_page_size);
    ("ablation-latency", ablation_latency);
    ("ablation-protocol", ablation_protocol);
    ("ablation-pipeline", ablation_pipeline);
    ("ablation-tlb", ablation_tlb);
    ("ablation-adapt", adapt_ablation);
    ("extra-lu", extra_lu);
    ("extra-fft", extra_fft);
    ("extra-radix", extra_radix);
    ("hlrc-figs", hlrc_figs);
    ("scaling", scaling);
    ("csv", csv);
    ("messages", messages);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* strip -j N / --jobs N (or -jN / --jobs=N) before target dispatch *)
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse acc rest
      | _ ->
        Printf.eprintf "-j/--jobs expects a positive integer, got %S\n" n;
        exit 2)
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "-j/--jobs expects an argument\n";
      exit 2
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" -> (
      match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
      | Some n when n >= 1 ->
        jobs := n;
        parse acc rest
      | _ ->
        Printf.eprintf "bad jobs count %S\n" arg;
        exit 2)
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> (
      match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
      | Some n when n >= 1 ->
        jobs := n;
        parse acc rest
      | _ ->
        Printf.eprintf "bad jobs count %S\n" arg;
        exit 2)
    | arg :: rest -> parse (arg :: acc) rest
  in
  let args = parse [] args in
  let chosen = if args = [] then List.map fst targets else args in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown target %S; known: %s\n" name
          (String.concat " " (List.map fst targets));
        exit 1)
    chosen
