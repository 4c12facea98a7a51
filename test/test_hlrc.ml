(* Tests for the home-based lazy release consistency protocol:
   correctness of the notice machinery, freshness across synchronization,
   full applications, and the key performance claim (no invalidation
   epochs at release). *)

open Mgs.State

let make ?(nprocs = 4) ?(cluster = 2) ?(lan = 500) () =
  let cfg =
    Mgs.Machine.config ~nprocs ~cluster ~lan_latency:lan ~protocol:Protocol_hlrc
      ~shadow:true ()
  in
  Mgs.Machine.create cfg

let alloc_page m =
  let topo = Mgs.Machine.topo m in
  Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc (topo.Topology.nprocs - 1))

(* Writes propagate through lock handoff: the acquirer's stale copy is
   lazily invalidated by the notices the lock carries. *)
let test_lock_carries_notices () =
  let m = make ~nprocs:4 ~cluster:2 () in
  let page = alloc_page m in
  Mgs.Machine.poke m page 1.0;
  let lock = Mgs_sync.Locks.(make m Token) in
  let seen = ref 0.0 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 ->
           (* warm a read copy in SSMP 0 so laziness actually matters *)
           ignore (Mgs.Api.read ctx page);
           Mgs_sync.Locks.acquire ctx lock;
           Mgs.Api.write ctx page 2.0;
           Mgs_sync.Locks.release ctx lock
         | 2 ->
           ignore (Mgs.Api.read ctx page);
           Mgs.Api.idle_until ctx 200_000;
           Mgs_sync.Locks.acquire ctx lock;
           (* the acquire must invalidate our stale copy *)
           seen := Mgs.Api.read ctx page;
           Mgs_sync.Locks.release ctx lock
         | _ -> ()));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check (float 0.)) "acquirer sees the release" 2.0 !seen;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m);
  Alcotest.(check bool) "diffs flushed home" true (total m Mgs.Pstats.diffs >= 1);
  Alcotest.(check bool) "lazy invalidation happened" true (total m Mgs.Pstats.invals >= 1)

(* Releases involve no invalidation fan-out: without synchronization
   between them, readers legitimately keep their copies. *)
let test_release_has_no_fanout () =
  let m = make ~nprocs:4 ~cluster:1 () in
  let page = alloc_page m in
  Mgs.Machine.poke m page 1.0;
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 1 | 2 -> ignore (Mgs.Api.read ctx page)
         | 0 ->
           Mgs.Api.idle_until ctx 100_000;
           Mgs.Api.write ctx page 2.0;
           Mgs.Api.release ctx
         | _ -> ()));
  (* master updated, but nobody was interrupted *)
  Alcotest.(check (float 0.)) "master merged" 2.0 (Mgs.Machine.peek m page);
  Alcotest.(check int) "no PINV interrupts" 0 (total m Mgs.Pstats.pinvs);
  Alcotest.(check int) "no lazy invalidations yet" 0 (total m Mgs.Pstats.invals)

let test_multiple_writers_merge () =
  let m = make ~nprocs:4 ~cluster:2 () in
  let base = Mgs.Machine.alloc m ~words:8 ~home:(Mgs_mem.Allocator.On_proc 1) in
  let bar = Mgs_sync.Barrier.create m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         if p = 0 then Mgs.Api.write ctx (base + 0) 10.0;
         if p = 2 then Mgs.Api.write ctx (base + 1) 20.0;
         Mgs_sync.Barrier.wait ctx bar;
         (* after the barrier everyone must observe both writes *)
         Alcotest.(check (float 0.)) "word0" 10.0 (Mgs.Api.read ctx (base + 0));
         Alcotest.(check (float 0.)) "word1" 20.0 (Mgs.Api.read ctx (base + 1));
         Mgs_sync.Barrier.wait ctx bar));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

let test_apps_run_under_hlrc () =
  let check w =
    List.iter
      (fun (nprocs, cluster) ->
        let cfg =
          Mgs.Machine.config ~nprocs ~cluster ~lan_latency:800 ~protocol:Protocol_hlrc ()
        in
        let m = Mgs.Machine.create cfg in
        let body, verify = w.Mgs_harness.Sweep.prepare m in
        ignore (Mgs.Machine.run m body);
        Mgs.Machine.assert_quiescent m;
        verify m)
      [ (4, 2); (8, 4) ]
  in
  check (Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
  check (Mgs_apps.Water.workload Mgs_apps.Water.tiny);
  check (Mgs_apps.Tsp.workload Mgs_apps.Tsp.tiny);
  check (Mgs_apps.Barnes.workload Mgs_apps.Barnes.tiny);
  check (Mgs_apps.Lu.workload Mgs_apps.Lu.tiny)

(* The shadow oracle counts what it sees: a racy read of a copy that no
   acquire has invalidated returns the old value, and that is one
   mismatch.  (Every "no shadow divergence" check relies on the count.) *)
let test_shadow_counts_stale_read () =
  let m = make ~nprocs:4 ~cluster:2 () in
  let page = alloc_page m in
  let seen = ref (-1.0) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 ->
           ignore (Mgs.Api.read ctx page);
           Mgs.Api.idle_until ctx 200_000;
           seen := Mgs.Api.read ctx page
         | 2 ->
           Mgs.Api.idle_until ctx 100_000;
           Mgs.Api.write ctx page 1.0
         | _ -> ()));
  Alcotest.(check (float 0.)) "the racy read saw the old value" 0.0 !seen;
  Alcotest.(check int) "one shadow mismatch" 1 (Mgs.Machine.shadow_mismatches m)

(* A fetch in flight when a sibling's acquire learns of a newer version
   must not install the older reply: the acquirer would read stale data
   inside its critical section.  Water-kernel's per-molecule locks hit
   that window. *)
let test_stale_fetch_rerequested () =
  let m = make ~nprocs:4 ~cluster:2 ~lan:1000 () in
  let w =
    Mgs_apps.Water_kernel.workload { Mgs_apps.Water_kernel.tiny with Mgs_apps.Water_kernel.nmol = 8 }
  in
  let body, verify = w.Mgs_harness.Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  Mgs.Machine.assert_quiescent m;
  verify m;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

(* The motivating claim: on a lock-migratory workload, lazy releases
   beat MGS's eager epochs. *)
let test_lazy_release_cheaper () =
  let runtime protocol =
    let cfg = Mgs.Machine.config ~nprocs:8 ~cluster:2 ~lan_latency:1000 ~protocol () in
    let m = Mgs.Machine.create cfg in
    let cell = Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let lock = Mgs_sync.Locks.(make m Token) in
    let bar = Mgs_sync.Barrier.create m in
    let report =
      Mgs.Machine.run m (fun ctx ->
          for _ = 1 to 20 do
            Mgs_sync.Locks.acquire ctx lock;
            Mgs.Api.write ctx cell (Mgs.Api.read ctx cell +. 1.0);
            Mgs_sync.Locks.release ctx lock
          done;
          Mgs_sync.Barrier.wait ctx bar)
    in
    Mgs.Machine.assert_quiescent m;
    Alcotest.(check (float 0.)) "count" 160.0 (Mgs.Machine.peek m cell);
    report.Mgs.Report.runtime
  in
  let eager = runtime Protocol_mgs in
  let lazy_ = runtime Protocol_hlrc in
  Alcotest.(check bool)
    (Printf.sprintf "lazy releases cheaper (%d < %d)" lazy_ eager)
    true (lazy_ < eager)

let run_random_drf seed =
  let nprocs = 8 and cluster = 2 in
  let cfg =
    Mgs.Machine.config ~page_words:16 ~nprocs ~cluster ~lan_latency:700
      ~protocol:Protocol_hlrc ~shadow:true ()
  in
  let m = Mgs.Machine.create cfg in
  let region = Mgs.Machine.alloc m ~words:24 ~home:Mgs_mem.Allocator.Interleaved in
  let lock = Mgs_sync.Locks.(make m Token) in
  let bar = Mgs_sync.Barrier.create m in
  let expected = Array.make 24 0.0 in
  let plan =
    Array.init nprocs (fun p ->
        let rng = Mgs_util.Rng.create ~seed:(seed + (p * 131)) in
        Array.init 12 (fun _ -> Mgs_util.Rng.int rng 24))
  in
  Array.iter (Array.iter (fun w -> expected.(w) <- expected.(w) +. 1.0)) plan;
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         Array.iteri
           (fun step w ->
             Mgs_sync.Locks.acquire ctx lock;
             Mgs.Api.write ctx (region + w) (Mgs.Api.read ctx (region + w) +. 1.0);
             Mgs_sync.Locks.release ctx lock;
             if step mod 4 = 3 then Mgs_sync.Barrier.wait ctx bar)
           plan.(p);
         Mgs_sync.Barrier.wait ctx bar));
  Mgs.Machine.assert_quiescent m;
  if Mgs.Machine.shadow_mismatches m <> 0 then failwith "shadow divergence";
  Array.iteri
    (fun w want ->
      let got = Mgs.Machine.peek m (region + w) in
      if got <> want then failwith (Printf.sprintf "word %d: got %g want %g" w got want))
    expected

let prop_hlrc_random_drf =
  QCheck2.Test.make ~name:"random DRF programs under HLRC" ~count:25
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      run_random_drf seed;
      true)

let () =
  Alcotest.run "hlrc"
    [
      ( "protocol",
        [
          Alcotest.test_case "lock carries notices" `Quick test_lock_carries_notices;
          Alcotest.test_case "release has no fan-out" `Quick test_release_has_no_fanout;
          Alcotest.test_case "multiple writers merge" `Quick test_multiple_writers_merge;
          Alcotest.test_case "shadow oracle counts a stale read" `Quick
            test_shadow_counts_stale_read;
        ] );
      ( "applications",
        [
          Alcotest.test_case "apps verify under HLRC" `Quick test_apps_run_under_hlrc;
          Alcotest.test_case "lazy beats eager on migratory locks" `Quick
            test_lazy_release_cheaper;
          Alcotest.test_case "stale fetch reply re-requested" `Quick
            test_stale_fetch_rerequested;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_hlrc_random_drf ]);
    ]
