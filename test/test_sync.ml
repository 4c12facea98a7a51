(* Tests for the hierarchical synchronization library: token-lock
   behavior (hits, transfers, fairness), barrier message economy, and
   reuse. *)

let make ?(nprocs = 8) ?(cluster = 2) ?(lan = 500) () =
  let cfg = Mgs.Machine.config ~nprocs ~cluster ~lan_latency:lan () in
  Mgs.Machine.create cfg

let test_lock_hit_at_home () =
  let m = make () in
  let lock = Mgs_sync.Locks.(make m ~home:1 Token) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         (* procs 2 and 3 are SSMP 1, where the token starts *)
         if Mgs.Api.proc ctx = 2 then begin
           Mgs_sync.Locks.acquire ctx lock;
           Mgs_sync.Locks.release ctx lock
         end));
  Alcotest.(check int) "one acquire" 1 (Mgs_sync.Locks.acquires lock);
  Alcotest.(check int) "it hit" 1 (Mgs_sync.Locks.hits lock);
  Alcotest.(check (float 0.)) "ratio" 1.0 (Mgs_sync.Locks.hit_ratio lock)

let test_lock_miss_transfers_token () =
  let m = make () in
  let lock = Mgs_sync.Locks.(make m ~home:0 Token) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         (* proc 4 is SSMP 2: the token must travel *)
         if Mgs.Api.proc ctx = 4 then begin
           Mgs_sync.Locks.acquire ctx lock;
           Mgs_sync.Locks.release ctx lock;
           (* second acquire from the same SSMP is then a hit *)
           Mgs_sync.Locks.acquire ctx lock;
           Mgs_sync.Locks.release ctx lock
         end));
  Alcotest.(check int) "two acquires" 2 (Mgs_sync.Locks.acquires lock);
  Alcotest.(check int) "first missed, second hit" 1 (Mgs_sync.Locks.hits lock)

let test_lock_mutual_exclusion_stress () =
  let m = make ~nprocs:8 ~cluster:4 () in
  let cell = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let lock = Mgs_sync.Locks.(make m Token) in
  let bar = Mgs_sync.Barrier.create m in
  let per = 25 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         for _ = 1 to per do
           Mgs_sync.Locks.acquire ctx lock;
           Mgs.Api.write ctx cell (Mgs.Api.read ctx cell +. 1.0);
           Mgs_sync.Locks.release ctx lock
         done;
         Mgs_sync.Barrier.wait ctx bar));
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check (float 0.)) "no lost updates" (float_of_int (8 * per))
    (Mgs.Machine.peek m cell)

let test_lock_release_without_hold () =
  let m = make () in
  let lock = Mgs_sync.Locks.(make m Token) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           try
             Mgs_sync.Locks.release ctx lock;
             Alcotest.fail "expected failure"
           with Failure _ -> ()
         end))

let test_barrier_message_economy () =
  (* the tree barrier needs exactly two inter-SSMP messages per
     non-master SSMP per episode: one combine in, one release out *)
  let m = make ~nprocs:8 ~cluster:2 () in
  let bar = Mgs_sync.Barrier.create m in
  let episodes = 5 in
  let lan_before = (Mgs_net.Lan.stats m.Mgs.State.lan).Mgs_net.Lan.messages in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         for _ = 1 to episodes do
           Mgs_sync.Barrier.wait ctx bar
         done));
  let lan_after = (Mgs_net.Lan.stats m.Mgs.State.lan).Mgs_net.Lan.messages in
  (* 4 SSMPs: 3 remote combines + 3 remote releases per episode *)
  Alcotest.(check int) "2 messages per remote SSMP per episode"
    (episodes * 2 * 3)
    (lan_after - lan_before);
  Alcotest.(check int) "episodes counted" episodes (Mgs_sync.Barrier.episodes bar)

let test_barrier_reuse_phases () =
  let m = make ~nprocs:4 ~cluster:2 () in
  let slots = Mgs.Machine.alloc m ~words:4 ~home:Mgs_mem.Allocator.Interleaved in
  let bar = Mgs_sync.Barrier.create m in
  let phases = 6 in
  let ok = ref true in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         for ph = 1 to phases do
           Mgs.Api.write ctx (slots + p) (float_of_int ph);
           Mgs_sync.Barrier.wait ctx bar;
           (* after the barrier, every slot must show this phase *)
           for q = 0 to 3 do
             if Mgs.Api.read ctx (slots + q) <> float_of_int ph then ok := false
           done;
           Mgs_sync.Barrier.wait ctx bar
         done));
  Alcotest.(check bool) "phases never bleed" true !ok

let test_flat_sync_at_single_ssmp () =
  let m = make ~nprocs:4 ~cluster:4 () in
  let lock = Mgs_sync.Locks.(make m Token) in
  let bar = Mgs_sync.Barrier.create m in
  let report =
    Mgs.Machine.run m (fun ctx ->
        Mgs_sync.Locks.acquire ctx lock;
        Mgs_sync.Locks.release ctx lock;
        Mgs_sync.Barrier.wait ctx bar)
  in
  Alcotest.(check int) "no LAN traffic" 0 report.Mgs.Report.lan_messages;
  Alcotest.(check (float 0.)) "all lock hits" 1.0 (Mgs_sync.Locks.hit_ratio lock)

let test_fairness_bound_prevents_starvation () =
  (* one SSMP hammers the lock; a remote acquirer must still get it *)
  let m = make ~nprocs:4 ~cluster:2 ~lan:200 () in
  let lock = Mgs_sync.Locks.(make m ~home:0 Token) in
  let got_it = ref false in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 | 1 ->
           for _ = 1 to 200 do
             Mgs_sync.Locks.acquire ctx lock;
             Mgs.Api.compute ctx 50;
             Mgs_sync.Locks.release ctx lock
           done
         | 2 ->
           Mgs_sync.Locks.acquire ctx lock;
           got_it := true;
           Mgs_sync.Locks.release ctx lock
         | _ -> ()));
  Alcotest.(check bool) "remote acquirer served" true !got_it

let test_grant_bound_zero_is_fair () =
  (* bound 0: the token departs at the first recalled release, so a
     hammering SSMP cannot raise its hit ratio much *)
  let m = make ~nprocs:4 ~cluster:2 ~lan:300 () in
  let fair = Mgs_sync.Locks.(make m ~grant_bound:0 Token) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         for _ = 1 to 30 do
           Mgs_sync.Locks.acquire ctx fair;
           Mgs.Api.compute ctx 100;
           Mgs_sync.Locks.release ctx fair;
           (* yield so the processors genuinely interleave (real
              programs yield on every shared-memory access) *)
           Mgs.Api.idle_until ctx (Mgs.Api.cycles ctx)
         done));
  Alcotest.(check bool)
    (Printf.sprintf "fair lock hit ratio low (%.2f)" (Mgs_sync.Locks.hit_ratio fair))
    true
    (Mgs_sync.Locks.hit_ratio fair < 0.6);
  Alcotest.check_raises "negative bound" (Invalid_argument "Locks.make: grant_bound")
    (fun () -> ignore (Mgs_sync.Locks.(make m ~grant_bound:(-1) Token)))

let prop_lock_counter_across_shapes =
  QCheck2.Test.make ~name:"locked counter is exact on random shapes" ~count:25
    QCheck2.Gen.(triple (int_range 0 2) (int_range 0 2) (int_range 1 12))
    (fun (log_c, log_extra, per) ->
      let cluster = 1 lsl log_c in
      let nprocs = cluster * (1 lsl log_extra) in
      let m = make ~nprocs ~cluster () in
      let cell = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
      let lock = Mgs_sync.Locks.(make m Token) in
      let bar = Mgs_sync.Barrier.create m in
      ignore
        (Mgs.Machine.run m (fun ctx ->
             for _ = 1 to per do
               Mgs_sync.Locks.acquire ctx lock;
               Mgs.Api.write ctx cell (Mgs.Api.read ctx cell +. 1.0);
               Mgs_sync.Locks.release ctx lock
             done;
             Mgs_sync.Barrier.wait ctx bar));
      Mgs.Machine.peek m cell = float_of_int (nprocs * per))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_lock_counter_across_shapes ]

let () =
  Alcotest.run "sync"
    [
      ( "lock",
        [
          Alcotest.test_case "hit at home" `Quick test_lock_hit_at_home;
          Alcotest.test_case "miss transfers token" `Quick test_lock_miss_transfers_token;
          Alcotest.test_case "mutual exclusion stress" `Quick test_lock_mutual_exclusion_stress;
          Alcotest.test_case "release without hold" `Quick test_lock_release_without_hold;
          Alcotest.test_case "fairness" `Quick test_fairness_bound_prevents_starvation;
          Alcotest.test_case "grant bound zero" `Quick test_grant_bound_zero_is_fair;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "message economy" `Quick test_barrier_message_economy;
          Alcotest.test_case "phase reuse" `Quick test_barrier_reuse_phases;
          Alcotest.test_case "flat at C=P" `Quick test_flat_sync_at_single_ssmp;
        ] );
      ("properties", qsuite);
    ]
