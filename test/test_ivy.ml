(* Tests for the Ivy (sequentially-consistent single-writer) baseline
   protocol: invariants, ownership migration, and full application runs
   under the alternative protocol. *)

open Mgs.State

let make ?(nprocs = 4) ?(cluster = 2) ?(lan = 500) () =
  let cfg =
    Mgs.Machine.config ~nprocs ~cluster ~lan_latency:lan ~protocol:Protocol_ivy ~shadow:true ()
  in
  Mgs.Machine.create cfg

let alloc_page m =
  let topo = Mgs.Machine.topo m in
  Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc (topo.Topology.nprocs - 1))

let test_single_owner_invariant () =
  let m = make ~nprocs:8 ~cluster:2 () in
  let page = alloc_page m in
  let bar = Mgs_sync.Barrier.create m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         (* every processor takes a turn writing, with barriers between
            turns so the program is DRF *)
         for turn = 0 to 7 do
           if p = turn then Mgs.Api.write ctx page (float_of_int turn);
           Mgs_sync.Barrier.wait ctx bar
         done));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check (float 0.)) "last writer wins" 7.0 (Mgs.Machine.peek m page);
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m);
  (* at most one SSMP may ever remain in write_dir *)
  let se = get_sentry m (Geom.vpn_of_addr m.geom page) in
  Alcotest.(check bool) "single owner" true (Bitset.cardinal se.s_write_dir <= 1)

let test_write_invalidates_readers () =
  let m = make ~nprocs:4 ~cluster:1 () in
  let page = alloc_page m in
  Mgs.Machine.poke m page 1.0;
  let bar = Mgs_sync.Barrier.create m in
  let seen = Array.make 4 0.0 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         ignore (Mgs.Api.read ctx page);
         Mgs_sync.Barrier.wait ctx bar;
         if p = 0 then Mgs.Api.write ctx page 2.0;
         Mgs_sync.Barrier.wait ctx bar;
         seen.(p) <- Mgs.Api.read ctx page;
         Mgs_sync.Barrier.wait ctx bar));
  Array.iteri
    (fun p v -> Alcotest.(check (float 0.)) (Printf.sprintf "proc %d" p) 2.0 v)
    seen;
  Alcotest.(check bool) "invalidations were sent" true (total m Mgs.Pstats.invals > 0);
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

let test_read_downgrades_owner () =
  let m = make ~nprocs:4 ~cluster:2 ~lan:200 () in
  let page = alloc_page m in
  let got = ref 0.0 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 -> Mgs.Api.write ctx page 5.0
         | 2 ->
           (* read well after the write: the owner gets recalled *)
           Mgs.Api.idle_until ctx 300_000;
           got := Mgs.Api.read ctx page
         | _ -> ()));
  Alcotest.(check (float 0.)) "recalled value" 5.0 !got;
  Alcotest.(check bool) "a recall happened" true (total m Mgs.Pstats.one_winvals > 0);
  (* the former owner keeps a read copy *)
  let se = get_sentry m (Geom.vpn_of_addr m.geom page) in
  Alcotest.(check bool) "owner downgraded" true (Bitset.is_empty se.s_write_dir);
  Alcotest.(check bool) "both are readers" true (Bitset.cardinal se.s_read_dir = 2)

let test_no_release_machinery () =
  let m = make () in
  let page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx page 1.0;
           (* release is a no-op under sequential consistency *)
           Mgs.Api.release ctx
         end));
  Alcotest.(check int) "no RELs" 0 (total m Mgs.Pstats.releases);
  Alcotest.(check int) "no diffs" 0 (total m Mgs.Pstats.diffs);
  (* ... and quiescence holds without any flush *)
  Mgs.Machine.assert_quiescent m

let test_apps_run_under_ivy () =
  (* sequential consistency is stronger than RC: every application must
     still verify against its reference *)
  let check w =
    List.iter
      (fun (nprocs, cluster) ->
        let cfg =
          Mgs.Machine.config ~nprocs ~cluster ~lan_latency:800 ~protocol:Protocol_ivy ()
        in
        let m = Mgs.Machine.create cfg in
        let body, verify = w.Mgs_harness.Sweep.prepare m in
        ignore (Mgs.Machine.run m body);
        Mgs.Machine.assert_quiescent m;
        verify m)
      [ (4, 2); (4, 4) ]
  in
  check (Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
  check (Mgs_apps.Water.workload Mgs_apps.Water.tiny);
  check (Mgs_apps.Tsp.workload Mgs_apps.Tsp.tiny);
  check (Mgs_apps.Lu.workload Mgs_apps.Lu.tiny)

(* The motivating comparison: under write-write false sharing the Ivy
   page ping-pongs while MGS's multiple-writer protocol lets both SSMPs
   write concurrently and merge diffs. *)
let test_false_sharing_pingpong () =
  let runtime protocol =
    let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:1000 ~protocol () in
    let m = Mgs.Machine.create cfg in
    let page = Mgs.Machine.alloc m ~words:8 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let bar = Mgs_sync.Barrier.create m in
    let report =
      Mgs.Machine.run m (fun ctx ->
          let p = Mgs.Api.proc ctx in
          (* procs 0 (SSMP 0) and 2 (SSMP 1) write disjoint words of
             the same page in interleaved rounds: under Ivy the page's
             ownership must ping-pong every round, under MGS both SSMPs
             hold write copies simultaneously *)
          if p = 0 || p = 2 then
            for i = 1 to 50 do
              Mgs.Api.idle_until ctx (i * 40_000);
              Mgs.Api.write ctx (page + (p / 2)) (float_of_int i)
            done;
          Mgs_sync.Barrier.wait ctx bar)
    in
    Mgs.Machine.assert_quiescent m;
    report.Mgs.Report.lan_messages
  in
  (* the run is paced by idle time, so compare protocol traffic: Ivy
     transfers ownership every round, MGS lets both SSMPs keep write
     copies and merges diffs only at the final barrier *)
  let ivy = runtime Protocol_ivy in
  let mgs = runtime Protocol_mgs in
  Alcotest.(check bool)
    (Printf.sprintf "Ivy ping-pongs, MGS does not (%d msgs > 5 * %d msgs)" ivy mgs)
    true
    (ivy > 5 * mgs)

let run_random_drf protocol seed =
  (* mirror of the stress-test program shape, under the Ivy protocol *)
  let nprocs = 8 and cluster = 2 in
  let cfg =
    Mgs.Machine.config ~page_words:16 ~nprocs ~cluster ~lan_latency:700 ~protocol
      ~shadow:true ()
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

let prop_ivy_random_drf =
  QCheck2.Test.make ~name:"random DRF programs under Ivy" ~count:25
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      run_random_drf Protocol_ivy seed;
      true)

let () =
  Alcotest.run "ivy"
    [
      ( "protocol",
        [
          Alcotest.test_case "single owner" `Quick test_single_owner_invariant;
          Alcotest.test_case "write invalidates readers" `Quick test_write_invalidates_readers;
          Alcotest.test_case "read downgrades owner" `Quick test_read_downgrades_owner;
          Alcotest.test_case "no release machinery" `Quick test_no_release_machinery;
        ] );
      ( "applications",
        [
          Alcotest.test_case "apps verify under Ivy" `Quick test_apps_run_under_ivy;
          Alcotest.test_case "false sharing ping-pong" `Quick test_false_sharing_pingpong;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_ivy_random_drf ]);
    ]
