(* Memory-model litmus tests, run under all three protocols (the
   lock-based ones under every lock kind too).

   Each pattern encodes a happens-before claim of the memory model:
   - properly synchronized message passing MUST observe the data;
   - unsynchronized racy reads are allowed to return either value but
     must never crash the machine or corrupt unrelated state. *)

open Mgs.State

let protocols = [ ("mgs", Protocol_mgs); ("hlrc", Protocol_hlrc); ("ivy", Protocol_ivy) ]

(* Every litmus machine runs with the shadow oracle AND the online
   invariant checker: a pattern that passes its visibility assertion but
   corrupts protocol state still fails.  The trace is on too: one case
   counts its events, and the end-of-run check balances its spans. *)
let checkers : (Mgs.Machine.t * Mgs.Invariant.t) list ref = ref []

let machine ?(nprocs = 4) ?(lan_latency = 600) ?faults protocol =
  let cfg =
    Mgs.Machine.config ~nprocs ~cluster:2 ~lan_latency ~protocol ~shadow:true ?faults
      ~fault_seed:1234 ()
  in
  let m = Mgs.Machine.create cfg in
  ignore (Mgs.Machine.enable_trace m);
  checkers := (m, Mgs.Machine.enable_checker m) :: !checkers;
  m

let assert_invariants m =
  match List.assq_opt m !checkers with
  | None -> Alcotest.fail "machine has no checker attached"
  | Some c ->
    (* end-of-run pass: any still-open transaction span is an orphan *)
    Mgs.Invariant.finish c;
    if Mgs.Invariant.count c > 0 then
      Alcotest.fail (Format.asprintf "%a" Mgs.Invariant.pp c)

(* MP (message passing) through a lock: w(data); unlock || lock; r(data). *)
let test_mp_lock ?faults ?(lock = Mgs_sync.Locks.Token) protocol () =
  let m = machine ?faults protocol in
  let data = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 3) in
  let lock = Mgs_sync.Locks.make m lock in
  let turn = ref 0 in
  let seen = ref (-1.0) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 ->
           Mgs_sync.Locks.acquire ctx lock;
           Mgs.Api.write ctx data 42.0;
           turn := 1;
           Mgs_sync.Locks.release ctx lock
         | 2 ->
           (* spin on host state until the writer's critical section is
              done, then acquire: the read must see the write *)
           let rec wait () =
             if !turn = 0 then begin
               Mgs.Api.compute ctx 1000;
               Mgs.Api.idle_until ctx (Mgs.Api.cycles ctx);
               wait ()
             end
           in
           wait ();
           Mgs_sync.Locks.acquire ctx lock;
           seen := Mgs.Api.read ctx data;
           Mgs_sync.Locks.release ctx lock
         | _ -> ()));
  Mgs.Machine.assert_quiescent m;
  assert_invariants m;
  Alcotest.(check (float 0.)) "MP through lock" 42.0 !seen;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

(* MP through a barrier: w(data); barrier || barrier; r(data). *)
let test_mp_barrier ?faults protocol () =
  let m = machine ?faults protocol in
  let data = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 1) in
  let bar = Mgs_sync.Barrier.create m in
  let seen = Array.make 4 (-1.0) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         if p = 3 then Mgs.Api.write ctx data 7.0;
         Mgs_sync.Barrier.wait ctx bar;
         seen.(p) <- Mgs.Api.read ctx data;
         Mgs_sync.Barrier.wait ctx bar));
  assert_invariants m;
  Array.iteri
    (fun p v -> Alcotest.(check (float 0.)) (Printf.sprintf "proc %d sees write" p) 7.0 v)
    seen

(* Transitivity: A writes x, hands lock to B; B writes y, hands lock to
   C; C must see BOTH writes (causal chains compose). *)
let test_transitive ?faults ?(lock = Mgs_sync.Locks.Token) protocol () =
  let m = machine ?faults protocol in
  let x = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let y = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 3) in
  let lock = Mgs_sync.Locks.make m lock in
  let stage = ref 0 in
  let got = ref (0.0, 0.0) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let wait_for s =
           let rec go () =
             if !stage < s then begin
               Mgs.Api.compute ctx 500;
               Mgs.Api.idle_until ctx (Mgs.Api.cycles ctx);
               go ()
             end
           in
           go ()
         in
         match Mgs.Api.proc ctx with
         | 0 ->
           Mgs_sync.Locks.acquire ctx lock;
           Mgs.Api.write ctx x 1.0;
           stage := 1;
           Mgs_sync.Locks.release ctx lock
         | 1 ->
           wait_for 1;
           Mgs_sync.Locks.acquire ctx lock;
           (* B reads x (must see it) and writes y *)
           Alcotest.(check (float 0.)) "B sees x" 1.0 (Mgs.Api.read ctx x);
           Mgs.Api.write ctx y 2.0;
           stage := 2;
           Mgs_sync.Locks.release ctx lock
         | 2 ->
           wait_for 2;
           Mgs_sync.Locks.acquire ctx lock;
           got := (Mgs.Api.read ctx x, Mgs.Api.read ctx y);
           Mgs_sync.Locks.release ctx lock
         | _ -> ()));
  assert_invariants m;
  let gx, gy = !got in
  Alcotest.(check (float 0.)) "C sees x transitively" 1.0 gx;
  Alcotest.(check (float 0.)) "C sees y" 2.0 gy

(* Independent locks do not order each other: two disjoint lock-protected
   counters end exactly right even under heavy interleaving. *)
let test_independent_locks ?faults ?(lock = Mgs_sync.Locks.Token) protocol () =
  let m = machine ?faults protocol in
  let a = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let b = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 2) in
  let la = Mgs_sync.Locks.make m ~home:0 lock in
  let lb = Mgs_sync.Locks.make m ~home:1 lock in
  let bar = Mgs_sync.Barrier.create m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         for _ = 1 to 10 do
           Mgs_sync.Locks.acquire ctx la;
           Mgs.Api.write ctx a (Mgs.Api.read ctx a +. 1.0);
           Mgs_sync.Locks.release ctx la;
           Mgs_sync.Locks.acquire ctx lb;
           Mgs.Api.write ctx b (Mgs.Api.read ctx b +. 1.0);
           Mgs_sync.Locks.release ctx lb
         done;
         Mgs_sync.Barrier.wait ctx bar));
  Mgs.Machine.assert_quiescent m;
  assert_invariants m;
  Alcotest.(check (float 0.)) "counter a" 40.0 (Mgs.Machine.peek m a);
  Alcotest.(check (float 0.)) "counter b" 40.0 (Mgs.Machine.peek m b)

(* --- MGS-only protocol regressions --------------------------------- *)

(* Two processors in the same SSMP write the same page and release
   concurrently.  The second REL arrives during the first epoch and is
   deferred; the follow-up epoch finds the retained single-writer copy
   untouched since its write-back, so the reply is 1WCLEAN — the
   optimization that skips a redundant page transfer.  Both writes must
   end up in the master. *)
let test_deferred_rel_1wclean () =
  let m = machine Protocol_mgs in
  let page = Mgs.Machine.alloc m ~words:256 ~home:(Mgs_mem.Allocator.On_proc 2) in
  let la = Mgs_sync.Locks.(make m ~home:1 Token) in
  let lb = Mgs_sync.Locks.(make m ~home:1 Token) in
  let step = 200_000 in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         match Mgs.Api.proc ctx with
         | 0 ->
           Mgs_sync.Locks.acquire ctx la;
           Mgs.Api.write ctx page 1.0;
           (* both releasers fire at the same instant so the second REL
              lands inside the first REL's invalidation epoch *)
           Mgs.Api.idle_until ctx (2 * step);
           Mgs_sync.Locks.release ctx la
         | 1 ->
           Mgs_sync.Locks.acquire ctx lb;
           Mgs.Api.idle_until ctx step;
           (* same SSMP as proc 0: a local fill, no second fetch *)
           Mgs.Api.write ctx (page + 1) 2.0;
           Mgs.Api.idle_until ctx (2 * step);
           Mgs_sync.Locks.release ctx lb
         | _ -> ()));
  Mgs.Machine.assert_quiescent m;
  assert_invariants m;
  Alcotest.(check (float 0.)) "first write released" 1.0 (Mgs.Machine.peek m page);
  Alcotest.(check (float 0.)) "second write released" 2.0 (Mgs.Machine.peek m (page + 1));
  Alcotest.(check int) "first epoch writes back the page" 1 (Am.count m.am "1WDATA");
  Alcotest.(check int) "follow-up epoch finds the copy clean" 1 (Am.count m.am "1WCLEAN");
  Alcotest.(check int) "pstats counts the clean reply" 1 (total m Mgs.Pstats.one_wclean);
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

(* An upgrade's WNOTIFY racing a REL: the notification loses the race,
   the home invalidates the upgrader through the read directory (DIFF),
   grants the 1WDATA writer a retained copy, and then must RECALL that
   copy because the merged diff made it stale.  The recall is visible as
   an epoch extension in the event trace; the upgrader's write must
   survive into the master and be seen by a later reader. *)
let test_wnotify_races_rel () =
  let m = machine ~nprocs:6 Protocol_mgs in
  let page = Mgs.Machine.alloc m ~words:256 ~home:(Mgs_mem.Allocator.On_proc 4) in
  let la = Mgs_sync.Locks.(make m ~home:2 Token) in
  let lb = Mgs_sync.Locks.(make m ~home:2 Token) in
  let bar = Mgs_sync.Barrier.create m in
  let step = 200_000 in
  let reread = ref (-1.0) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         (match Mgs.Api.proc ctx with
         | 0 ->
           (* the single writer: its REL beats the upgrader's WNOTIFY to
              the home, so the epoch starts with the upgrader still in
              the read directory *)
           Mgs_sync.Locks.acquire ctx la;
           Mgs.Api.write ctx page 1.0;
           Mgs.Api.idle_until ctx ((3 * step) + 2_000);
           Mgs_sync.Locks.release ctx la
         | 2 ->
           (* the upgrader: read copy first, then a write that upgrades
              in place; twinning holds the mapping lock long enough for
              the epoch's INV to queue behind it *)
           Mgs_sync.Locks.acquire ctx lb;
           ignore (Mgs.Api.read ctx (page + 1));
           Mgs.Api.idle_until ctx (3 * step);
           Mgs.Api.write ctx (page + 1) 2.0;
           Mgs.Api.idle_until ctx (4 * step);
           Mgs_sync.Locks.release ctx lb
         | _ -> ());
         Mgs_sync.Barrier.wait ctx bar;
         if Mgs.Api.proc ctx = 0 then reread := Mgs.Api.read ctx (page + 1)));
  Mgs.Machine.assert_quiescent m;
  assert_invariants m;
  Alcotest.(check (float 0.)) "writer's word in master" 1.0 (Mgs.Machine.peek m page);
  Alcotest.(check (float 0.)) "upgrader's word in master" 2.0
    (Mgs.Machine.peek m (page + 1));
  Alcotest.(check (float 0.)) "writer re-reads the upgrader's word" 2.0 !reread;
  Alcotest.(check int) "writer replied 1WDATA" 1 (Am.count m.am "1WDATA");
  Alcotest.(check int) "upgrader collected as DIFF" 1 (Am.count m.am "DIFF");
  Alcotest.(check int) "WNOTIFY was sent" 1 (Am.count m.am "WNOTIFY");
  let extends =
    match Mgs.Machine.trace m with
    | None -> -1
    | Some tr ->
      List.length
        (List.filter
           (fun (e : Mgs_obs.Event.t) -> e.Mgs_obs.Event.tag = "sv.epoch_extend")
           (Mgs_obs.Trace.events tr))
  in
  Alcotest.(check int) "stale retained copy recalled (epoch extended)" 1 extends;
  Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m)

let for_all_protocols name f =
  List.map
    (fun (pname, p) -> Alcotest.test_case (Printf.sprintf "%s [%s]" name pname) `Quick (f p))
    protocols

(* The same happens-before claims must hold verbatim on a lossy LAN:
   the reliable transport makes drops/dups/reorderings invisible to the
   protocol layer (exactly-once handlers), so every assertion — shadow
   oracle and invariant checker included — is unchanged. *)
let lossy = Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.5

let for_all_protocols_lossy name (f : ?faults:Mgs_net.Fault.spec -> protocol -> unit -> unit) =
  List.map
    (fun (pname, p) ->
      Alcotest.test_case (Printf.sprintf "%s [%s, lossy]" name pname) `Quick (f ~faults:lossy p))
    protocols

(* The lock-based claims belong to the lock, not to one algorithm: they
   also run under every other lock kind, clean and lossy. *)
let for_every_lock ?faults name
    (f : ?faults:Mgs_net.Fault.spec -> ?lock:Mgs_sync.Locks.kind -> protocol -> unit -> unit) =
  List.concat_map
    (fun lock ->
      List.map
        (fun (pname, p) ->
          Alcotest.test_case
            (Printf.sprintf "%s [%s, %s%s]" name pname (Mgs_sync.Locks.name_of lock)
               (if faults = None then "" else ", lossy"))
            `Quick (f ?faults ~lock p))
        protocols)
    (List.filter (fun k -> k <> Mgs_sync.Locks.Token) Mgs_sync.Locks.all)

let every_lock ?faults () =
  for_every_lock ?faults "MP lock" test_mp_lock
  @ for_every_lock ?faults "A->B->C" test_transitive
  @ for_every_lock ?faults "disjoint locks" test_independent_locks

let () =
  Alcotest.run "litmus"
    [
      ("message passing via lock", for_all_protocols "MP lock" test_mp_lock);
      ("message passing via barrier", for_all_protocols "MP barrier" test_mp_barrier);
      ("transitivity", for_all_protocols "A->B->C" test_transitive);
      ("independence", for_all_protocols "disjoint locks" test_independent_locks);
      ( "lossy LAN",
        for_all_protocols_lossy "MP lock" (fun ?faults p -> test_mp_lock ?faults p)
        @ for_all_protocols_lossy "MP barrier" test_mp_barrier
        @ for_all_protocols_lossy "A->B->C" (fun ?faults p -> test_transitive ?faults p)
        @ for_all_protocols_lossy "disjoint locks" (fun ?faults p ->
              test_independent_locks ?faults p) );
      ("every lock", every_lock ());
      ("every lock, lossy LAN", every_lock ~faults:lossy ());
      ( "protocol regressions",
        [
          Alcotest.test_case "deferred REL yields 1WCLEAN" `Quick test_deferred_rel_1wclean;
          Alcotest.test_case "WNOTIFY races REL (recall)" `Quick test_wnotify_races_rel;
        ] );
    ]
