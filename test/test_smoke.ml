(* End-to-end smoke tests: small shared-memory programs run on several
   machine shapes; results must match a sequential computation, and the
   machine must end quiescent. *)

let shapes = [ (4, 1); (4, 2); (4, 4); (8, 2); (8, 8) ]

let run_shape ~nprocs ~cluster body check =
  let cfg = Mgs.Machine.config ~nprocs ~cluster ~lan_latency:1000 () in
  let m = Mgs.Machine.create cfg in
  let report = body m in
  Mgs.Machine.assert_quiescent m;
  check m report

(* Every processor increments every element of a shared vector under a
   global lock; final values must equal nprocs. *)
let test_lock_counter ~nprocs ~cluster () =
  run_shape ~nprocs ~cluster
    (fun m ->
      let words = 300 in
      let base = Mgs.Machine.alloc m ~words ~home:Mgs_mem.Allocator.Interleaved in
      let lock = Mgs_sync.Locks.(make m Token) in
      let bar = Mgs_sync.Barrier.create m in
      let report =
        Mgs.Machine.run m (fun ctx ->
            Mgs_sync.Locks.acquire ctx lock;
            for i = 0 to words - 1 do
              let v = Mgs.Api.read ctx (base + i) in
              Mgs.Api.write ctx (base + i) (v +. 1.0)
            done;
            Mgs_sync.Locks.release ctx lock;
            Mgs_sync.Barrier.wait ctx bar)
      in
      (m, base, words, report))
    (fun _m (m, base, words, report) ->
      for i = 0 to words - 1 do
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "slot %d" i)
          (float_of_int nprocs)
          (Mgs.Machine.peek m (base + i))
      done;
      Alcotest.(check bool) "runtime positive" true (report.Mgs.Report.runtime > 0))

(* Producer/consumer across barriers: proc p writes its block each
   phase, everyone then reads every block. *)
let test_barrier_phases ~nprocs ~cluster () =
  run_shape ~nprocs ~cluster
    (fun m ->
      let block = 64 in
      let words = block * nprocs in
      let base = Mgs.Machine.alloc m ~words ~home:Mgs_mem.Allocator.Blocked in
      let sums = Mgs.Machine.alloc m ~words:nprocs ~home:Mgs_mem.Allocator.Interleaved in
      let bar = Mgs_sync.Barrier.create m in
      let phases = 3 in
      let report =
        Mgs.Machine.run m (fun ctx ->
            let p = Mgs.Api.proc ctx in
            for phase = 1 to phases do
              for i = 0 to block - 1 do
                Mgs.Api.write ctx (base + (p * block) + i) (float_of_int ((phase * 1000) + p))
              done;
              Mgs_sync.Barrier.wait ctx bar;
              (* read everyone's block and accumulate privately *)
              let acc = ref 0.0 in
              for q = 0 to nprocs - 1 do
                for i = 0 to block - 1 do
                  acc := !acc +. Mgs.Api.read ctx (base + (q * block) + i)
                done
              done;
              Mgs.Api.write ctx (sums + p) !acc;
              Mgs_sync.Barrier.wait ctx bar
            done)
      in
      (m, sums, block, phases, report))
    (fun _m (m, sums, block, phases, _report) ->
      (* Expected final-phase sum: sum over q of block * (phases*1000 + q). *)
      let expect =
        float_of_int block
        *. List.fold_left
             (fun acc q -> acc +. float_of_int ((phases * 1000) + q))
             0.0
             (List.init nprocs (fun q -> q))
      in
      for p = 0 to nprocs - 1 do
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "sum of proc %d" p)
          expect
          (Mgs.Machine.peek m (sums + p))
      done)

(* Determinism: two identical runs give identical runtimes. *)
let test_deterministic () =
  let once () =
    let cfg = Mgs.Machine.config ~nprocs:8 ~cluster:2 ~lan_latency:500 () in
    let m = Mgs.Machine.create cfg in
    let base = Mgs.Machine.alloc m ~words:512 ~home:Mgs_mem.Allocator.Interleaved in
    let lock = Mgs_sync.Locks.(make m Token) in
    let bar = Mgs_sync.Barrier.create m in
    let report =
      Mgs.Machine.run m (fun ctx ->
          let p = Mgs.Api.proc ctx in
          for i = 0 to 127 do
            let a = base + ((p + i) mod 512) in
            Mgs_sync.Locks.acquire ctx lock;
            let v = Mgs.Api.read ctx a in
            Mgs.Api.write ctx a (v +. 1.0);
            Mgs_sync.Locks.release ctx lock
          done;
          Mgs_sync.Barrier.wait ctx bar)
    in
    report.Mgs.Report.runtime
  in
  let r1 = once () and r2 = once () in
  Alcotest.(check int) "identical runtimes" r1 r2

let cases =
  List.concat_map
    (fun (nprocs, cluster) ->
      let name fmt = Printf.sprintf fmt nprocs cluster in
      [
        Alcotest.test_case (name "lock counter P=%d C=%d") `Quick
          (test_lock_counter ~nprocs ~cluster);
        Alcotest.test_case (name "barrier phases P=%d C=%d") `Quick
          (test_barrier_phases ~nprocs ~cluster);
      ])
    shapes

let () =
  Alcotest.run "smoke"
    [
      ("end-to-end", cases);
      ("determinism", [ Alcotest.test_case "same seed same cycles" `Quick test_deterministic ]);
    ]
