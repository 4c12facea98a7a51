(* Application correctness: every app, at tiny problem sizes, must
   produce the same answer as its sequential reference on every machine
   shape (each run also passes Machine.assert_quiescent). *)

let shapes = [ (4, 1); (4, 2); (4, 4); (8, 4); (8, 8); (16, 4) ]

let check_workload w () =
  List.iter
    (fun (nprocs, cluster) ->
      let cfg = Mgs.Machine.config ~lan_latency:800 ~nprocs ~cluster () in
      ignore (Mgs_harness.Sweep.run_point cfg w))
    shapes

let workloads =
  [
    ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
    ("matmul", Mgs_apps.Matmul.workload Mgs_apps.Matmul.tiny);
    ("tsp", Mgs_apps.Tsp.workload Mgs_apps.Tsp.tiny);
    ("tsp, one city", Mgs_apps.Tsp.workload { Mgs_apps.Tsp.tiny with ncities = 1 });
    ("water", Mgs_apps.Water.workload Mgs_apps.Water.tiny);
    ("barnes-hut", Mgs_apps.Barnes.workload Mgs_apps.Barnes.tiny);
    ("water-kernel", Mgs_apps.Water_kernel.workload Mgs_apps.Water_kernel.tiny);
    ("water-kernel tiled", Mgs_apps.Water_kernel.workload_tiled Mgs_apps.Water_kernel.tiny);
    ("lu", Mgs_apps.Lu.workload Mgs_apps.Lu.tiny);
    ("radix", Mgs_apps.Radix.workload Mgs_apps.Radix.tiny);
  ]

(* The kernels must agree with each other too: same pair set, same
   forces (checked inside each workload against the same reference). *)

let () =
  Alcotest.run "apps"
    [
      ( "correct on all shapes",
        List.map (fun (n, w) -> Alcotest.test_case n `Quick (check_workload w)) workloads );
    ]
