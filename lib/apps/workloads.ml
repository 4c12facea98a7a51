(* Every application registered once as a [Mgs_harness.Workload.make]
   of its name, the knobs it accepts and its constructors, so the CLIs,
   the benchmark driver, and the perf harness all select applications
   by name through one registry.

   The generic knobs map onto each application's natural parameter,
   starting from the application's own [default] record: [size] is n
   (jacobi/matmul/lu), ncities (tsp), nmol (water, water-kernel),
   nbodies (barnes), m (fft) or nkeys (radix); [iters] and [lock] apply
   only where the application lists them — anything else is rejected
   with an error naming the accepted knobs.

   Registration happens at module initialization; [ensure] exists so
   executables can force this module to link (an archive member with no
   referenced value would otherwise be dropped, leaving the registry
   empty). *)

open Mgs_harness.Workload

(* the plain and the tiled Water kernel share one parameter record *)
let water_kernel_of_args a =
  let d = Water_kernel.default in
  { d with Water_kernel.nmol = Option.value ~default:d.nmol a.size }

let () =
  List.iter register
    [
      make ~name:"jacobi" ~knobs:[ "size"; "iters" ]
        ~of_args:(fun a ->
          let d = Jacobi.default in
          {
            d with
            Jacobi.n = Option.value ~default:d.n a.size;
            iters = Option.value ~default:d.iters a.iters;
          })
        ~workload:Jacobi.workload ~problem_size:Jacobi.problem_size ~tiny:Jacobi.tiny
        ~epilogue:no_epilogue;
      make ~name:"matmul" ~knobs:[ "size" ]
        ~of_args:(fun a ->
          let d = Matmul.default in
          { d with Matmul.n = Option.value ~default:d.n a.size })
        ~workload:Matmul.workload ~problem_size:Matmul.problem_size ~tiny:Matmul.tiny
        ~epilogue:no_epilogue;
      make ~name:"tsp" ~knobs:[ "size"; "lock" ]
        ~of_args:(fun a ->
          let d = Tsp.default in
          {
            d with
            Tsp.ncities = Option.value ~default:d.ncities a.size;
            lock = Option.value ~default:d.lock a.lock;
          })
        ~workload:Tsp.workload ~problem_size:Tsp.problem_size ~tiny:Tsp.tiny
        ~epilogue:no_epilogue;
      make ~name:"water" ~knobs:[ "size"; "iters"; "lock" ]
        ~of_args:(fun a ->
          let d = Water.default in
          {
            d with
            Water.nmol = Option.value ~default:d.nmol a.size;
            iters = Option.value ~default:d.iters a.iters;
            lock = Option.value ~default:d.lock a.lock;
          })
        ~workload:Water.workload ~problem_size:Water.problem_size ~tiny:Water.tiny
        ~epilogue:no_epilogue;
      make ~name:"barnes" ~knobs:[ "size"; "iters"; "lock" ]
        ~of_args:(fun a ->
          let d = Barnes.default in
          {
            d with
            Barnes.nbodies = Option.value ~default:d.nbodies a.size;
            iters = Option.value ~default:d.iters a.iters;
            lock = Option.value ~default:d.lock a.lock;
          })
        ~workload:Barnes.workload ~problem_size:Barnes.problem_size ~tiny:Barnes.tiny
        ~epilogue:no_epilogue;
      make ~name:"water-kernel" ~knobs:[ "size" ] ~of_args:water_kernel_of_args
        ~workload:Water_kernel.workload ~problem_size:Water_kernel.problem_size
        ~tiny:Water_kernel.tiny ~epilogue:no_epilogue;
      make ~name:"water-kernel-tiled" ~knobs:[ "size" ] ~of_args:water_kernel_of_args
        ~workload:Water_kernel.workload_tiled ~problem_size:Water_kernel.problem_size
        ~tiny:Water_kernel.tiny ~epilogue:no_epilogue;
      make ~name:"lu" ~knobs:[ "size" ]
        ~of_args:(fun a ->
          let d = Lu.default in
          { d with Lu.n = Option.value ~default:d.n a.size })
        ~workload:Lu.workload ~problem_size:Lu.problem_size ~tiny:Lu.tiny
        ~epilogue:no_epilogue;
      make ~name:"fft" ~knobs:[ "size" ]
        ~of_args:(fun a ->
          let d = Fft.default in
          { d with Fft.m = Option.value ~default:d.m a.size })
        ~workload:Fft.workload ~problem_size:Fft.problem_size ~tiny:Fft.tiny
        ~epilogue:no_epilogue;
      make ~name:"radix" ~knobs:[ "size" ]
        ~of_args:(fun a ->
          let d = Radix.default in
          { d with Radix.nkeys = Option.value ~default:d.nkeys a.size })
        ~workload:Radix.workload ~problem_size:Radix.problem_size ~tiny:Radix.tiny
        ~epilogue:no_epilogue;
      Mgs_serve.Kv.workload_module;
    ]

let ensure () = ()
