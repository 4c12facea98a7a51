(* Protocol-level tests: the MGS state machines observed through
   counters, server directories, and data values on small crafted
   machines. *)

open Mgs.State

let make ?(nprocs = 4) ?(cluster = 2) ?(lan = 500) () =
  let cfg = Mgs.Machine.config ~nprocs ~cluster ~lan_latency:lan ~shadow:true () in
  Mgs.Machine.create cfg

(* One page homed on the LAST processor (so SSMP 0 is remote). *)
let alloc_page m =
  let topo = Mgs.Machine.topo m in
  Mgs.Machine.alloc m ~words:1
    ~home:(Mgs_mem.Allocator.On_proc (topo.Topology.nprocs - 1))

let test_single_writer_optimization () =
  let m = make () in
  let page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx page 7.0;
           Mgs.Api.release ctx
         end));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check int) "1WINV used" 1 (total m Mgs.Pstats.one_winvals);
  Alcotest.(check int) "full page shipped" 1 (total m Mgs.Pstats.one_wdata);
  Alcotest.(check int) "no plain INV" 0 (total m Mgs.Pstats.invals);
  Alcotest.(check (float 0.)) "master merged" 7.0 (Mgs.Machine.peek m page);
  (* the writer's SSMP retains its copy with write privilege *)
  let ce = get_centry m 0 (Geom.vpn_of_addr m.geom page) in
  Alcotest.(check bool) "copy retained" true (ce.pstate = P_write);
  let se = get_sentry m (Geom.vpn_of_addr m.geom page) in
  Alcotest.(check bool) "server keeps retained SSMP in write_dir" true
    (Bitset.mem se.s_write_dir 0)

let test_retained_copy_refills_cheaply () =
  let m = make () in
  let page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx page 1.0;
           Mgs.Api.release ctx;
           (* the TLB was shot down but the page stayed: the second
              write must refill locally, not refetch *)
           Mgs.Api.write ctx page 2.0;
           Mgs.Api.release ctx
         end));
  Alcotest.(check int) "only one WREQ ever" 1 (total m Mgs.Pstats.write_fetches);
  Alcotest.(check bool) "local refill happened" true (total m Mgs.Pstats.tlb_local_fills >= 1);
  Alcotest.(check (float 0.)) "second value merged" 2.0 (Mgs.Machine.peek m page)

let test_clean_retained_release_is_light () =
  let m = make () in
  let page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx page 1.0;
           Mgs.Api.release ctx;
           (* read-only touch, then another REL for the same page ends
              up 1WCLEAN because the dirty bit is clear *)
           ignore (Mgs.Api.read ctx page);
           Mgs.Api.write ctx page 1.5;
           Mgs.Api.release ctx;
           Mgs.Api.release ctx
         end));
  Alcotest.(check int) "two full page write-backs" 2 (total m Mgs.Pstats.one_wdata);
  Alcotest.(check (float 0.)) "value" 1.5 (Mgs.Machine.peek m page)

let test_two_writers_merge_by_diff () =
  let m = make () in
  let base =
    Mgs.Machine.alloc m ~words:8 ~home:(Mgs_mem.Allocator.On_proc 1)
  in
  let bar = ref None in
  let m_bar = Mgs_sync.Barrier.create m in
  bar := Some m_bar;
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         (* procs 0 (SSMP 0) and 2 (SSMP 1) write disjoint words *)
         if p = 0 then Mgs.Api.write ctx (base + 0) 10.0;
         if p = 2 then Mgs.Api.write ctx (base + 1) 20.0;
         Mgs_sync.Barrier.wait ctx m_bar));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check (float 0.)) "word 0" 10.0 (Mgs.Machine.peek m (base + 0));
  Alcotest.(check (float 0.)) "word 1" 20.0 (Mgs.Machine.peek m (base + 1));
  Alcotest.(check bool) "diffs flowed" true (total m Mgs.Pstats.diffs >= 1);
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

let test_upgrade_path () =
  let m = make () in
  let page = alloc_page m in
  Mgs.Machine.poke m page 5.0;
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           let v = Mgs.Api.read ctx page in
           (* read brought a read copy; the write upgrades it in place *)
           Mgs.Api.write ctx page (v +. 1.0);
           Mgs.Api.release ctx
         end));
  Alcotest.(check int) "upgrade executed" 1 (total m Mgs.Pstats.upgrades);
  Alcotest.(check int) "read fetch only" 1 (total m Mgs.Pstats.read_fetches);
  Alcotest.(check int) "no write fetch" 0 (total m Mgs.Pstats.write_fetches);
  Alcotest.(check (float 0.)) "merged" 6.0 (Mgs.Machine.peek m page)

let test_eager_invalidation_of_readers () =
  let m = make ~nprocs:4 ~cluster:1 () in
  let page = alloc_page m in
  Mgs.Machine.poke m page 1.0;
  let bar = Mgs_sync.Barrier.create m in
  let seen = Array.make 4 0.0 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         (* everyone reads the initial value *)
         ignore (Mgs.Api.read ctx page);
         Mgs_sync.Barrier.wait ctx bar;
         if p = 0 then Mgs.Api.write ctx page 2.0;
         Mgs_sync.Barrier.wait ctx bar;
         (* the writer's barrier release invalidated every read copy *)
         seen.(p) <- Mgs.Api.read ctx page;
         Mgs_sync.Barrier.wait ctx bar));
  Array.iteri
    (fun p v -> Alcotest.(check (float 0.)) (Printf.sprintf "proc %d sees update" p) 2.0 v)
    seen;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

(* Requests that arrive during REL_IN_PROG are served after the merge:
   with a huge LAN latency the release epoch is wide open when the
   reader faults, and it must still observe the merged value. *)
let test_request_queued_during_release () =
  let m = make ~nprocs:4 ~cluster:2 ~lan:20000 () in
  let page = alloc_page m in
  let got = ref 0.0 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 ->
           Mgs.Api.write ctx page 9.0;
           Mgs.Api.release ctx
         | 2 ->
           (* fault into the middle of proc 0's release epoch (the
              REL reaches the home around t=78k and the epoch completes
              around t=130k at this LAN latency; the home is in this
              SSMP, so the RREQ arrives almost immediately) *)
           Mgs.Api.idle_until ctx 85000;
           got := Mgs.Api.read ctx page
         | _ -> ()));
  Alcotest.(check (float 0.)) "reader waited for the merge" 9.0 !got;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

let test_single_writer_opt_disabled () =
  let cfg =
    Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:500
      ~features:{ Mgs.State.default_features with single_writer_opt = false }
      ()
  in
  let m = Mgs.Machine.create cfg in
  let page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx page 7.0;
           Mgs.Api.release ctx
         end));
  Alcotest.(check int) "no 1WINV" 0 (total m Mgs.Pstats.one_winvals);
  Alcotest.(check int) "plain INV instead" 1 (total m Mgs.Pstats.invals);
  Alcotest.(check int) "diff returned" 1 (total m Mgs.Pstats.diffs);
  Alcotest.(check (float 0.)) "merged via diff" 7.0 (Mgs.Machine.peek m page);
  (* without the optimization the copy is dropped, not retained *)
  let ce = get_centry m 0 (Geom.vpn_of_addr m.geom page) in
  Alcotest.(check bool) "copy freed" true (ce.pstate = P_inv)

let test_early_read_ack_still_correct () =
  let cfg =
    Mgs.Machine.config ~nprocs:4 ~cluster:1 ~lan_latency:500 ~shadow:true
      ~features:{ Mgs.State.default_features with early_read_ack = true }
      ()
  in
  let m = Mgs.Machine.create cfg in
  let page = alloc_page m in
  Mgs.Machine.poke m page 3.0;
  let bar = Mgs_sync.Barrier.create m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         ignore (Mgs.Api.read ctx page);
         Mgs_sync.Barrier.wait ctx bar;
         if p = 1 then Mgs.Api.write ctx page 4.0;
         Mgs_sync.Barrier.wait ctx bar;
         Alcotest.(check (float 0.)) "update visible" 4.0 (Mgs.Api.read ctx page);
         Mgs_sync.Barrier.wait ctx bar));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m);
  Alcotest.(check bool) "read invalidations happened" true (total m Mgs.Pstats.acks > 0)

let test_early_read_ack_is_faster () =
  (* The optimization targets pages whose read copies are expensive to
     clean (paper: "the latency of invalidation for widely read shared
     data can be very high"), so crank the per-line cleaning cost until
     the read-invalidation path dominates the release. *)
  let costs =
    let c = Mgs_machine.Costs.default in
    { c with Mgs_machine.Costs.proto = { c.Mgs_machine.Costs.proto with clean_per_line = 600 } }
  in
  let release_time features =
    let cfg = Mgs.Machine.config ~costs ~nprocs:8 ~cluster:1 ~lan_latency:1000 ~features () in
    let m = Mgs.Machine.create cfg in
    let page = alloc_page m in
    let t = ref 0 in
    ignore
      (Mgs.Machine.run m (fun ctx ->
           let p = Mgs.Api.proc ctx in
           if p < 6 then ignore (Mgs.Api.read ctx page);
           if p = 0 then begin
             Mgs.Api.idle_until ctx 200000;
             Mgs.Api.write ctx page 1.0;
             let c0 = Mgs.Api.cycles ctx in
             Mgs.Api.release ctx;
             t := Mgs.Api.cycles ctx - c0
           end));
    !t
  in
  (* disable the single-writer optimization in both variants so the
     writer answers with a diff (no cleaning) and the read-copy
     cleaning is the critical path *)
  let base = { Mgs.State.default_features with Mgs.State.single_writer_opt = false } in
  let eager = release_time base in
  let early = release_time { base with Mgs.State.early_read_ack = true } in
  Alcotest.(check bool)
    (Printf.sprintf "early ack releases faster (%d < %d)" early eager)
    true (early < eager)

let test_pipelined_release_correct () =
  (* pipelined releases must produce the same data and strictly fewer
     (or equal) cycles than serial ones on a multi-page flush *)
  let run pipelined =
    let features = { Mgs.State.default_features with pipelined_release = pipelined } in
    let cfg =
      Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:1000 ~features ~shadow:true ()
    in
    let m = Mgs.Machine.create cfg in
    let base = Mgs.Machine.alloc m ~words:(256 * 6) ~home:(Mgs_mem.Allocator.On_proc 3) in
    let t = ref 0 in
    ignore
      (Mgs.Machine.run m (fun ctx ->
           if Mgs.Api.proc ctx = 0 then begin
             for pg = 0 to 5 do
               Mgs.Api.write ctx (base + (256 * pg)) (float_of_int pg)
             done;
             let c0 = Mgs.Api.cycles ctx in
             Mgs.Api.release ctx;
             t := Mgs.Api.cycles ctx - c0
           end));
    Mgs.Machine.assert_quiescent m;
    for pg = 0 to 5 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "page %d merged" pg)
        (float_of_int pg)
        (Mgs.Machine.peek m (base + (256 * pg)))
    done;
    !t
  in
  let serial = run false in
  let piped = run true in
  Alcotest.(check bool)
    (Printf.sprintf "pipelining helps (%d < %d)" piped serial)
    true (piped < serial)

(* Regression: the WNOTIFY race.  An SSMP with a read copy upgrades it
   (write + WNOTIFY) while another SSMP's release epoch is in flight:
   the server still believes the upgrader is a reader, so the single
   writer is granted retention (1WINV/1WDATA) although a second writer
   exists.  Correctness then requires (a) the upgrader's DIFF to merge
   over the full page, and (b) the stale retained copy to be recalled
   before the releasers are acknowledged.  This exact interleaving lost
   writes in early versions of the implementation. *)
let test_wnotify_race_regression () =
  let m = make ~nprocs:4 ~cluster:2 ~lan:20000 () in
  let page = alloc_page m in
  Mgs.Machine.poke m page 1.0;
  let results = ref [] in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 ->
           (* SSMP 0 takes a read copy early, then upgrades it in the
              middle of SSMP 1's release epoch *)
           ignore (Mgs.Api.read ctx page);
           Mgs.Api.idle_until ctx 85_000;
           Mgs.Api.write ctx (page + 1) 10.0;
           Mgs.Api.release ctx
         | 2 ->
           (* SSMP 1 writes and releases; with this LAN latency the
              epoch spans roughly t = 78k .. 130k *)
           Mgs.Api.write ctx page 9.0;
           Mgs.Api.release ctx
         | 3 ->
           (* late reader checks both writes survived *)
           Mgs.Api.idle_until ctx 400_000;
           results := [ Mgs.Api.read ctx page; Mgs.Api.read ctx (page + 1) ]
         | _ -> ()));
  Mgs.Machine.assert_quiescent m;
  (match !results with
  | [ a; b ] ->
    Alcotest.(check (float 0.)) "writer's word survived" 9.0 a;
    Alcotest.(check (float 0.)) "upgrader's word survived" 10.0 b
  | _ -> Alcotest.fail "reader did not run");
  Alcotest.(check (float 0.)) "master word 0" 9.0 (Mgs.Machine.peek m page);
  Alcotest.(check (float 0.)) "master word 1" 10.0 (Mgs.Machine.peek m (page + 1));
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m);
  (* pin the interleaving: the epoch used the single-writer path AND
     collected a diff from the racing upgrader *)
  Alcotest.(check bool) "single-writer path taken" true (total m Mgs.Pstats.one_winvals >= 1);
  Alcotest.(check bool) "upgrader answered with a diff" true (total m Mgs.Pstats.diffs >= 1);
  Alcotest.(check bool) "upgrade really raced" true (total m Mgs.Pstats.upgrades >= 1)

let test_quiescence_detects_dirty_duq () =
  let m = make () in
  let page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then Mgs.Api.write ctx page 1.0
         (* no release: the DUQ entry survives the run *)));
  Alcotest.check_raises "quiescence check fires"
    (Failure "proc 0: delayed update queue not empty") (fun () ->
      Mgs.Machine.assert_quiescent m)

let test_address_bounds () =
  let m = make () in
  let _page = alloc_page m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           (try
              ignore (Mgs.Api.read ctx 100000);
              Alcotest.fail "expected out-of-heap failure"
            with Invalid_argument _ -> ())
         end));
  Alcotest.check_raises "poke out of range"
    (Invalid_argument "Machine: address 99999 outside the shared heap") (fun () ->
      Mgs.Machine.poke m 99999 0.0)

let test_single_ssmp_has_no_protocol () =
  let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:4 () in
  let m = Mgs.Machine.create cfg in
  let base = Mgs.Machine.alloc m ~words:64 ~home:Mgs_mem.Allocator.Interleaved in
  let bar = Mgs_sync.Barrier.create m in
  let report =
    Mgs.Machine.run m (fun ctx ->
        let p = Mgs.Api.proc ctx in
        for i = 0 to 15 do
          Mgs.Api.write ctx (base + (p * 16) + i) (float_of_int p)
        done;
        Mgs_sync.Barrier.wait ctx bar)
  in
  Alcotest.(check int) "no LAN messages" 0 report.Mgs.Report.lan_messages;
  Alcotest.(check int) "no fetches" 0
    (report.Mgs.Report.pstats.Mgs.Pstats.read_fetches
    + report.Mgs.Report.pstats.Mgs.Pstats.write_fetches);
  Alcotest.(check (float 0.)) "zero MGS time" 0.0 report.Mgs.Report.breakdown.Mgs.Report.mgs

let test_page_size_parameter () =
  (* smaller pages mean more pages for the same data, hence more RELs
     when everything is flushed *)
  let releases page_words =
    let cfg = Mgs.Machine.config ~page_words ~nprocs:2 ~cluster:1 ~lan_latency:0 () in
    let m = Mgs.Machine.create cfg in
    let base = Mgs.Machine.alloc m ~words:256 ~home:(Mgs_mem.Allocator.On_proc 1) in
    ignore
      (Mgs.Machine.run m (fun ctx ->
           if Mgs.Api.proc ctx = 0 then begin
             for i = 0 to 255 do
               Mgs.Api.write ctx (base + i) 1.0
             done;
             Mgs.Api.release ctx
           end));
    (total m Mgs.Pstats.releases)
  in
  Alcotest.(check int) "256-word pages: 1 REL" 1 (releases 256);
  Alcotest.(check int) "64-word pages: 4 RELs" 4 (releases 64)

let () =
  Alcotest.run "proto"
    [
      ( "single-writer optimization",
        [
          Alcotest.test_case "1WINV path" `Quick test_single_writer_optimization;
          Alcotest.test_case "retained copy refills" `Quick test_retained_copy_refills_cheaply;
          Alcotest.test_case "clean retained release" `Quick test_clean_retained_release_is_light;
        ] );
      ( "multiple writers",
        [
          Alcotest.test_case "diff merge" `Quick test_two_writers_merge_by_diff;
          Alcotest.test_case "upgrade path" `Quick test_upgrade_path;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "eager invalidation" `Quick test_eager_invalidation_of_readers;
          Alcotest.test_case "queued during release" `Quick test_request_queued_during_release;
          Alcotest.test_case "WNOTIFY race regression" `Quick test_wnotify_race_regression;
        ] );
      ( "feature toggles",
        [
          Alcotest.test_case "pipelined release" `Quick test_pipelined_release_correct;
          Alcotest.test_case "single-writer opt off" `Quick test_single_writer_opt_disabled;
          Alcotest.test_case "early read ack correct" `Quick test_early_read_ack_still_correct;
          Alcotest.test_case "early read ack faster" `Quick test_early_read_ack_is_faster;
        ] );
      ( "machine checks",
        [
          Alcotest.test_case "quiescence detects dirty DUQ" `Quick
            test_quiescence_detects_dirty_duq;
          Alcotest.test_case "address bounds" `Quick test_address_bounds;
          Alcotest.test_case "C=P bypasses software" `Quick test_single_ssmp_has_no_protocol;
          Alcotest.test_case "page size parameter" `Quick test_page_size_parameter;
        ] );
      ( "frames",
        [
          Alcotest.test_case "a re-grant fills the retired frame" `Quick (fun () ->
              Frames.check_pingpong Protocol_mgs ~budget:480);
          Alcotest.test_case "a single-writer release copies no page" `Quick
            Frames.check_single_writer;
        ] );
    ]
