(* Randomized data-race-free programs against the shadow oracle: the
   strongest protocol-correctness test.  Each generated program runs on
   a random machine shape with the sequentially-consistent shadow mirror
   on; any read that diverges from the mirror — or any lost update in
   the final master state — is a protocol bug.

   Program structure (DRF by construction):
   - R shared regions, each protected by its own token lock; every
     access to region r happens inside lock r's critical section;
   - per-processor private blocks, only touched by their owner;
   - barriers at fixed loop indices (all processors arrive);
   - all updates are commutative increments, so the final region state
     is schedule-independent and can be verified exactly. *)

let regions = 3

let region_words = 24 (* spans pages when page_words is small *)

let run_program ~nprocs ~cluster ~page_words ~lan ~steps ~seed =
  let cfg = Mgs.Machine.config ~page_words ~nprocs ~cluster ~lan_latency:lan ~shadow:true () in
  let m = Mgs.Machine.create cfg in
  let region =
    Array.init regions (fun i ->
        Mgs.Machine.alloc m ~words:region_words
          ~home:
            (match i mod 3 with
            | 0 -> Mgs_mem.Allocator.Interleaved
            | 1 -> Mgs_mem.Allocator.Blocked
            | _ -> Mgs_mem.Allocator.On_proc (i mod nprocs)))
  in
  let private_base =
    Mgs.Machine.alloc m ~words:(8 * nprocs) ~home:Mgs_mem.Allocator.Blocked
  in
  let locks =
    Array.init regions (fun i -> Mgs_sync.Locks.(make m ~home:(i mod (nprocs / cluster)) Token))
  in
  let bar = Mgs_sync.Barrier.create m in
  (* expected increments per region word, accumulated host-side *)
  let expected = Array.make_matrix regions region_words 0.0 in
  let plan =
    (* per-proc deterministic op list derived from the seed *)
    Array.init nprocs (fun p ->
        let rng = Mgs_util.Rng.create ~seed:(seed + (p * 7919)) in
        Array.init steps (fun _ ->
            let r = Mgs_util.Rng.int rng regions in
            let w = Mgs_util.Rng.int rng region_words in
            let count = 1 + Mgs_util.Rng.int rng 3 in
            let private_op = Mgs_util.Rng.int rng 4 = 0 in
            (r, w, count, private_op)))
  in
  Array.iter
    (fun ops ->
      Array.iter
        (fun (r, w, count, private_op) ->
          if not private_op then
            for k = 0 to count - 1 do
              expected.(r).((w + k) mod region_words) <-
                expected.(r).((w + k) mod region_words) +. 1.0
            done)
        ops)
    plan;
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         Array.iteri
           (fun step (r, w, count, private_op) ->
             if private_op then begin
               (* private block: no lock needed, only the owner touches it *)
               let a = private_base + (8 * p) + (w mod 8) in
               Mgs.Api.write ctx a (Mgs.Api.read ctx a +. 1.0)
             end
             else begin
               Mgs_sync.Locks.acquire ctx locks.(r);
               for k = 0 to count - 1 do
                 let a = region.(r) + ((w + k) mod region_words) in
                 Mgs.Api.write ctx a (Mgs.Api.read ctx a +. 1.0)
               done;
               Mgs_sync.Locks.release ctx locks.(r)
             end;
             if step mod 5 = 4 then Mgs_sync.Barrier.wait ctx bar)
           plan.(p);
         Mgs_sync.Barrier.wait ctx bar));
  Mgs.Machine.assert_quiescent m;
  if Mgs.Machine.shadow_mismatches m <> 0 then
    failwith (Printf.sprintf "%d shadow mismatches" (Mgs.Machine.shadow_mismatches m));
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun w want ->
          let got = Mgs.Machine.peek m (region.(r) + w) in
          if got <> want then
            failwith
              (Printf.sprintf "region %d word %d: got %g want %g" r w got want))
        row)
    expected

(* Conservation law of the MGS server: every invalidation sent must be
   answered by exactly one ACK, DIFF, 1WDATA, or 1WCLEAN. *)
let check_conservation (m : Mgs.Machine.t) =
  let total = Mgs.State.total m in
  let sent = total Mgs.Pstats.invals + total Mgs.Pstats.one_winvals in
  let answered =
    total Mgs.Pstats.acks + total Mgs.Pstats.diffs + total Mgs.Pstats.one_wdata
    + total Mgs.Pstats.one_wclean
  in
  if sent <> answered then
    failwith (Printf.sprintf "conservation violated: %d INVs, %d replies" sent answered)

let prop_conservation =
  QCheck2.Test.make ~name:"INV/reply conservation on random programs" ~count:60
    QCheck2.Gen.(pair (oneofl [ (4, 2); (8, 2); (8, 4) ]) (int_range 1 500))
    (fun ((nprocs, cluster), seed) ->
      (* rebuild the standard program but keep the machine to inspect *)
      let cfg =
        Mgs.Machine.config ~page_words:16 ~nprocs ~cluster ~lan_latency:600 ~shadow:true ()
      in
      let m = Mgs.Machine.create cfg in
      let region = Mgs.Machine.alloc m ~words:24 ~home:Mgs_mem.Allocator.Interleaved in
      let lock = Mgs_sync.Locks.(make m Token) in
      let bar = Mgs_sync.Barrier.create m in
      ignore
        (Mgs.Machine.run m (fun ctx ->
             let p = Mgs.Api.proc ctx in
             let rng = Mgs_util.Rng.create ~seed:(seed + (p * 53)) in
             for step = 1 to 10 do
               let w = Mgs_util.Rng.int rng 24 in
               Mgs_sync.Locks.acquire ctx lock;
               Mgs.Api.write ctx (region + w) (Mgs.Api.read ctx (region + w) +. 1.0);
               Mgs_sync.Locks.release ctx lock;
               if step mod 5 = 0 then Mgs_sync.Barrier.wait ctx bar
             done;
             Mgs_sync.Barrier.wait ctx bar));
      Mgs.Machine.assert_quiescent m;
      check_conservation m;
      Mgs.Machine.shadow_mismatches m = 0)

let prop_random_drf_programs =
  QCheck2.Test.make ~name:"random DRF programs match the shadow oracle" ~count:120
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 0 2) (oneofl [ 0; 500; 2000 ]) (int_range 1 1000))
    (fun (log_c, log_extra, lan, seed) ->
      let cluster = 1 lsl log_c in
      let nprocs = cluster * (1 lsl log_extra) in
      run_program ~nprocs ~cluster ~page_words:16 ~lan ~steps:12 ~seed;
      true)

(* the same generator under the lazy and SC protocols, plus feature
   variations of the MGS protocol, under any lock kind and job count,
   with the invariant checker on; returns the run's report identity *)
let run_program_variant ?(lock = Mgs_sync.Locks.Token) ?(par = 1) ~protocol ~features ~seed
    () =
  let nprocs = 8 and cluster = 2 in
  let cfg =
    Mgs.Machine.config ~page_words:16 ~nprocs ~cluster ~lan_latency:900 ~protocol ~features
      ~shadow:true ~par_jobs:par ()
  in
  let m = Mgs.Machine.create cfg in
  let checker = Mgs.Machine.enable_checker m in
  let region = Mgs.Machine.alloc m ~words:24 ~home:Mgs_mem.Allocator.Blocked in
  let lock = Mgs_sync.Locks.make m lock in
  let bar = Mgs_sync.Barrier.create m in
  let expected = Array.make 24 0.0 in
  let plan =
    Array.init nprocs (fun p ->
        let rng = Mgs_util.Rng.create ~seed:(seed + (p * 211)) in
        Array.init 14 (fun _ -> Mgs_util.Rng.int rng 24))
  in
  Array.iter (Array.iter (fun w -> expected.(w) <- expected.(w) +. 1.0)) plan;
  let report =
    Mgs.Machine.run m (fun ctx ->
        let p = Mgs.Api.proc ctx in
        Array.iteri
          (fun step w ->
            Mgs_sync.Locks.acquire ctx lock;
            Mgs.Api.write ctx (region + w) (Mgs.Api.read ctx (region + w) +. 1.0);
            Mgs_sync.Locks.release ctx lock;
            if step mod 6 = 5 then Mgs_sync.Barrier.wait ctx bar)
          plan.(p);
        Mgs_sync.Barrier.wait ctx bar)
  in
  Mgs.Machine.assert_quiescent m;
  if Mgs.Machine.shadow_mismatches m <> 0 then failwith "shadow divergence";
  if Mgs.Invariant.count checker <> 0 then
    failwith (Format.asprintf "%a" Mgs.Invariant.pp checker);
  Array.iteri
    (fun w want ->
      if Mgs.Machine.peek m (region + w) <> want then
        failwith (Printf.sprintf "word %d wrong" w))
    expected;
  Mgs.Report.ident report

let prop_all_variants =
  let variants =
    QCheck2.Gen.oneofl
      [
        (Mgs.State.Protocol_mgs, Mgs.State.default_features);
        (Mgs.State.Protocol_mgs, { Mgs.State.default_features with single_writer_opt = false });
        (Mgs.State.Protocol_mgs, { Mgs.State.default_features with early_read_ack = true });
        (Mgs.State.Protocol_mgs, { Mgs.State.default_features with pipelined_release = true });
        (Mgs.State.Protocol_hlrc, Mgs.State.default_features);
        (Mgs.State.Protocol_ivy, Mgs.State.default_features);
      ]
  in
  QCheck2.Test.make ~name:"random DRF programs, all protocol variants" ~count:90
    QCheck2.Gen.(pair variants (int_range 1 2000))
    (fun ((protocol, features), seed) ->
      ignore (run_program_variant ~protocol ~features ~seed ());
      true)

let prop_every_lock =
  QCheck2.Test.make ~name:"random DRF programs, every lock" ~count:60
    QCheck2.Gen.(
      triple (oneofl Mgs_sync.Locks.all)
        (oneofl Mgs.State.[ Protocol_mgs; Protocol_hlrc; Protocol_ivy ])
        (int_range 1 2000))
    ~print:(fun (lock, protocol, seed) ->
      Printf.sprintf "lock=%s protocol=%s seed=%d" (Mgs_sync.Locks.name_of lock)
        (Mgs.Protocol.name_of protocol) seed)
    (fun (lock, protocol, seed) ->
      ignore (run_program_variant ~lock ~protocol ~features:Mgs.State.default_features ~seed ());
      true)

(* Checking leaves the engine alone: with the checker and the shadow on,
   runs at 2 and 4 domains report exactly what the one-domain run does
   (and [run_program_variant] fails on any violation or mismatch). *)
let prop_checked_par_identical =
  QCheck2.Test.make ~name:"random DRF programs, checker + shadow, par 1/2/4" ~count:60
    QCheck2.Gen.(
      pair (oneofl Mgs.State.[ Protocol_mgs; Protocol_hlrc; Protocol_ivy ]) (int_range 1 2000))
    ~print:(fun (protocol, seed) ->
      Printf.sprintf "protocol=%s seed=%d" (Mgs.Protocol.name_of protocol) seed)
    (fun (protocol, seed) ->
      let run par =
        run_program_variant ~par ~protocol ~features:Mgs.State.default_features ~seed ()
      in
      let oracle = run 1 in
      run 2 = oracle && run 4 = oracle)

let prop_random_drf_bigger_pages =
  QCheck2.Test.make ~name:"random DRF programs, 64-word pages" ~count:60
    QCheck2.Gen.(pair (oneofl [ (4, 2); (8, 4); (8, 2) ]) (int_range 1 1000))
    (fun ((nprocs, cluster), seed) ->
      run_program ~nprocs ~cluster ~page_words:64 ~lan:1000 ~steps:16 ~seed;
      true)

(* A deterministic heavyweight instance of the same program shape, so
   the suite always exercises one dense interleaving. *)
let test_dense_instance () =
  run_program ~nprocs:8 ~cluster:2 ~page_words:16 ~lan:700 ~steps:40 ~seed:123

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_drf_programs;
      prop_random_drf_bigger_pages;
      prop_conservation;
      prop_all_variants;
      prop_every_lock;
      prop_checked_par_identical;
    ]

let () =
  Alcotest.run "stress"
    [
      ("deterministic", [ Alcotest.test_case "dense instance" `Quick test_dense_instance ]);
      ("random DRF", qsuite);
    ]
