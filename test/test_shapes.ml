(* Shape-regression guards: the qualitative results that constitute the
   reproduction (who wins, orderings, monotonicities) must survive code
   changes.  Sizes are trimmed below the bench defaults to keep the
   suite fast; the properties asserted are scale-robust. *)

module Sweep = Mgs_harness.Sweep

let nprocs = 16

let sweep w = Sweep.sweep (Mgs.Machine.config ~nprocs ~cluster:1 ()) w

let jacobi = lazy (sweep (Mgs_apps.Jacobi.workload { Mgs_apps.Jacobi.default with Mgs_apps.Jacobi.n = 62; iters = 3 }))

let tsp = lazy (sweep (Mgs_apps.Tsp.workload { Mgs_apps.Tsp.default with Mgs_apps.Tsp.ncities = 9 }))

let water = lazy (sweep (Mgs_apps.Water.workload { Mgs_apps.Water.default with Mgs_apps.Water.nmol = 64 }))

let barnes = lazy (sweep (Mgs_apps.Barnes.workload { Mgs_apps.Barnes.default with Mgs_apps.Barnes.nbodies = 64 }))

let kern p = { Mgs_apps.Water_kernel.default with Mgs_apps.Water_kernel.nmol = 32 } |> p

let wkern = lazy (sweep (kern Mgs_apps.Water_kernel.workload))

let wkern_tiled = lazy (sweep (kern Mgs_apps.Water_kernel.workload_tiled))

(* 1. The tightly-coupled machine wins everywhere (positive breakup). *)
let test_tightly_coupled_wins () =
  List.iter
    (fun (name, points) ->
      Alcotest.(check bool)
        (name ^ ": C=P fastest")
        true
        (Sweep.breakup_penalty (Lazy.force points) > 0.0))
    [ ("jacobi", jacobi); ("tsp", tsp); ("water", water); ("barnes", barnes) ]

(* 2. Clustering helps the irregular apps (positive multigrain
   potential), and the embarrassingly parallel one is insensitive. *)
let test_multigrain_potential () =
  Alcotest.(check bool) "water gains from clustering" true
    (Sweep.multigrain_potential (Lazy.force water) > 0.25);
  Alcotest.(check bool) "barnes gains from clustering" true
    (Sweep.multigrain_potential (Lazy.force barnes) > 0.25);
  Alcotest.(check bool) "jacobi roughly flat" true
    (Float.abs (Sweep.multigrain_potential (Lazy.force jacobi)) < 0.5)

(* 3. TSP is the pathological application, by a wide margin. *)
let test_tsp_is_worst () =
  let b points = Sweep.breakup_penalty (Lazy.force points) in
  Alcotest.(check bool) "tsp >> water" true (b tsp > 3.0 *. b water);
  Alcotest.(check bool) "tsp >> barnes" true (b tsp > 3.0 *. b barnes);
  Alcotest.(check bool) "tsp catastrophic" true (b tsp > 10.0)

(* 4. The hand-tiled kernel beats the untransformed kernel at every
   multi-SSMP cluster size and slashes the breakup penalty. *)
let test_tiling_pays () =
  let plain = Lazy.force wkern and tiled = Lazy.force wkern_tiled in
  List.iter
    (fun c ->
      if c < nprocs then
        Alcotest.(check bool)
          (Printf.sprintf "tiled faster at C=%d" c)
          true
          (Sweep.runtime_of tiled c < Sweep.runtime_of plain c))
    [ 1; 2; 4; 8 ];
  Alcotest.(check bool) "breakup reduced at least 2x" true
    (2.0 *. Sweep.breakup_penalty tiled < Sweep.breakup_penalty plain)

(* 5. Lock hit ratios rise monotonically with cluster size. *)
let test_hit_ratio_monotone () =
  List.iter
    (fun (name, points) ->
      let ratios =
        List.map (fun p -> Mgs.Report.lock_hit_ratio p.Sweep.report) (Lazy.force points)
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      Alcotest.(check bool) (name ^ ": hit ratio monotone") true (mono ratios))
    [ ("tsp", tsp); ("water", water); ("barnes", barnes) ]

(* 6. Runtime improves (weakly) with cluster size for the lock-based
   apps between C=1 and C=P/2, i.e. the curve slopes the right way. *)
let test_runtime_trend () =
  List.iter
    (fun (name, points) ->
      let pts = Lazy.force points in
      Alcotest.(check bool)
        (name ^ ": T(P/2) <= T(1)")
        true
        (Sweep.runtime_of pts (nprocs / 2) <= Sweep.runtime_of pts 1))
    [ ("water", water); ("barnes", barnes); ("jacobi", jacobi) ]

let () =
  Alcotest.run "shapes"
    [
      ( "paper shapes",
        [
          Alcotest.test_case "tightly-coupled wins" `Slow test_tightly_coupled_wins;
          Alcotest.test_case "multigrain potential" `Slow test_multigrain_potential;
          Alcotest.test_case "tsp is worst" `Slow test_tsp_is_worst;
          Alcotest.test_case "tiling pays" `Slow test_tiling_pays;
          Alcotest.test_case "hit ratios monotone" `Slow test_hit_ratio_monotone;
          Alcotest.test_case "runtime trend" `Slow test_runtime_trend;
        ] );
    ]
