(* Tests for the lock kinds: every algorithm must provide mutual
   exclusion and eventual acquisition (under clean and faulty networks),
   the queue locks must grant in FIFO order, a run's per-lock counters
   must agree with the machine's, and an acquire cut off by a
   partition must end the run with a typed outcome.  The microbenchmark
   family must be byte-identical under -j N, and its output and the
   lock-using apps' reports are pinned. *)

module Locks = Mgs_sync.Locks
module Micro = Mgs_harness.Micro
module Figures = Mgs_harness.Figures

let make ?(nprocs = 8) ?(cluster = 2) ?(lan = 500) () =
  let cfg = Mgs.Machine.config ~nprocs ~cluster ~lan_latency:lan () in
  Mgs.Machine.create cfg

(* ------------------------------------------------------------------ *)
(* Mutual exclusion + eventual acquisition, as one checked run.        *)
(* ------------------------------------------------------------------ *)

(* Fibers only interleave at suspension points, so a host-side
   occupancy flag around the critical section is an exact mutual
   exclusion oracle: the read/write/compute calls inside suspend, and a
   second holder would be observed.  Completion of [Machine.run] itself
   is the eventual-acquisition check — a lost wakeup leaves a fiber
   parked and [run] fails on incomplete fibers. *)
let run_mutex ?faults ?(seed = 42) ?(iters = 6) ?(nprocs = 8) ?(cluster = 2) kind =
  let name = Locks.name_of kind in
  let m = make ~nprocs ~cluster () in
  (match faults with
  | Some spec -> Mgs.Machine.set_faults m ~seed spec
  | None -> ());
  let cell = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let lock = Locks.make m kind in
  let inside = ref 0 in
  let violations = ref 0 in
  let rng = Mgs_util.Rng.create ~seed in
  let thinks = Array.init nprocs (fun _ -> 200 + Mgs_util.Rng.int rng 3000) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         Mgs.Api.compute ctx thinks.(p);
         for _ = 1 to iters do
           Locks.acquire ctx lock;
           incr inside;
           if !inside <> 1 then incr violations;
           Mgs.Api.write ctx cell (Mgs.Api.read ctx cell +. 1.0);
           Mgs.Api.compute ctx (100 + (thinks.(p) mod 500));
           decr inside;
           Locks.release ctx lock;
           Mgs.Api.compute ctx thinks.(p)
         done));
  Mgs.Machine.assert_quiescent m;
  if !violations > 0 then
    QCheck.Test.fail_reportf "%s: %d mutual-exclusion violations" name !violations;
  let got = int_of_float (Mgs.Machine.peek m cell) in
  if got <> nprocs * iters then
    QCheck.Test.fail_reportf "%s: lost updates: counter %d, want %d" name got
      (nprocs * iters);
  if Locks.acquires lock <> nprocs * iters then
    QCheck.Test.fail_reportf "%s: %d acquires recorded, want %d" name
      (Locks.acquires lock) (nprocs * iters);
  true

let chaos = "drop=0.05,dup=0.05,delay=0.1:2000,reorder=0.05,retries=25"

let prop_mutex =
  QCheck.Test.make ~count:6 ~name:"every lock: mutual exclusion, random think times"
    QCheck.(pair small_nat (oneofl Locks.all))
    (fun (seed, kind) -> run_mutex ~seed ~nprocs:8 ~cluster:4 kind)

let prop_mutex_faulty =
  QCheck.Test.make ~count:6 ~name:"every lock: mutual exclusion under a lossy LAN"
    QCheck.(pair small_nat (oneofl Locks.all))
    (fun (seed, kind) ->
      run_mutex ~faults:(Mgs_net.Fault.of_string chaos) ~seed ~nprocs:8 ~cluster:4 kind)

(* ------------------------------------------------------------------ *)
(* FIFO grant order for the queue locks.                               *)
(* ------------------------------------------------------------------ *)

(* Proc 0 takes the lock immediately and holds it while procs 1..P-1
   arrive well separated (100k cycles apart, dwarfing every message
   latency, retransmission timeout, and backoff in the system), so the
   queue locks must grant in exact arrival order.  The token lock
   batches grants per SSMP and tas is a backoff race, so only
   mcs/clh/ticket promise this. *)
let run_fifo ?faults ?(seed = 42) kind =
  let name = Locks.name_of kind in
  let nprocs = 8 in
  let m = make ~nprocs ~cluster:2 ~lan:1000 () in
  (match faults with
  | Some spec -> Mgs.Machine.set_faults m ~seed spec
  | None -> ());
  let lock = Locks.make m kind in
  let order = ref [] in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         if p = 0 then begin
           Locks.acquire ctx lock;
           Mgs.Api.compute ctx 3_000_000;
           Locks.release ctx lock
         end
         else begin
           Mgs.Api.idle_until ctx (p * 100_000);
           Locks.acquire ctx lock;
           order := p :: !order;
           Mgs.Api.compute ctx 500;
           Locks.release ctx lock
         end));
  Mgs.Machine.assert_quiescent m;
  let got = List.rev !order in
  let want = List.init (nprocs - 1) (fun i -> i + 1) in
  if got <> want then
    QCheck.Test.fail_reportf "%s: grant order %s, want FIFO %s" name
      (String.concat "," (List.map string_of_int got))
      (String.concat "," (List.map string_of_int want));
  true

let fifo_locks = Locks.[ Mcs; Clh; Ticket ]

let prop_fifo =
  QCheck.Test.make ~count:3 ~name:"queue locks grant in FIFO order"
    QCheck.(oneofl fifo_locks)
    (fun kind -> run_fifo kind)

let prop_fifo_faulty =
  QCheck.Test.make ~count:6 ~name:"queue locks stay FIFO under a lossy LAN"
    QCheck.(pair small_nat (oneofl fifo_locks))
    (fun (seed, kind) -> run_fifo ~faults:(Mgs_net.Fault.of_string chaos) ~seed kind)

(* ------------------------------------------------------------------ *)
(* One run's lock counters.                                            *)
(* ------------------------------------------------------------------ *)

(* The per-lock counters and the machine's lock columns describe the
   same run: every acquire is counted once on each side, handoffs
   record their gaps, the queue drains, and the lock's traffic and
   waiting reach the protocol counters. *)
let test_lock_counters () =
  let m = make ~nprocs:8 ~cluster:2 () in
  let cell = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let lock = Locks.make m Clh in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         for _ = 1 to 4 do
           Locks.acquire ctx lock;
           Mgs.Api.write ctx cell (Mgs.Api.read ctx cell +. 1.0);
           Locks.release ctx lock
         done));
  Mgs.Machine.assert_quiescent m;
  let open Mgs.State in
  Alcotest.(check int) "acquires" (8 * 4) (Locks.acquires lock);
  Alcotest.(check int) "machine lock counter" (8 * 4) (total m Mgs.Pstats.lock_acquires);
  Alcotest.(check bool) "handoffs recorded" true (Locks.handoffs lock > 0);
  Alcotest.(check int) "a gap per handoff" (Locks.handoffs lock) (Locks.gap_stats lock).Locks.n;
  Alcotest.(check int) "no queued waiters" 0 (Locks.waiters lock);
  Alcotest.(check bool) "lock messages counted" true (total m Mgs.Pstats.lock_msgs > 0);
  Alcotest.(check bool) "lock wait counted" true (total m Mgs.Pstats.lock_wait > 0);
  Alcotest.(check (float 0.)) "counter" (float_of_int (8 * 4)) (Mgs.Machine.peek m cell)

(* ------------------------------------------------------------------ *)
(* A partition during an acquire ends the run, not the process.        *)
(* ------------------------------------------------------------------ *)

let test_partitioned_acquire () =
  let m = make ~nprocs:4 ~cluster:2 () in
  let lock = Locks.make m ~home:0 Token in
  (* total loss: the cross-SSMP token request exhausts its retries *)
  Mgs.Machine.set_faults m ~seed:7 (Mgs_net.Fault.of_string "drop=1.0,retries=3");
  let r =
    Mgs.Machine.run m (fun ctx ->
        if Mgs.Api.proc ctx = 2 then begin
          Locks.acquire ctx lock;
          Locks.release ctx lock
        end)
  in
  (match r.Mgs.Report.outcome with
  | Mgs.Report.Partitioned _ -> ()
  | _ -> Alcotest.fail "expected a partitioned outcome");
  Alcotest.(check bool) "waiter abandoned mid-acquire" true (Locks.waiters lock > 0)

(* ------------------------------------------------------------------ *)
(* -j N byte identity of the microbenchmark family.                    *)
(* ------------------------------------------------------------------ *)

let test_lock_family_jobs_identical () =
  let specs =
    List.concat_map
      (fun lock -> List.map (fun fibers -> (lock, "mgs", 4, fibers)) [ 4; 8 ])
      Locks.all
  in
  let seq = Micro.lock_family ~iters:4 ~jobs:1 specs in
  let par = Micro.lock_family ~iters:4 ~jobs:3 specs in
  Alcotest.(check string) "-j 3 output identical to -j 1"
    (Figures.pp_lock_table seq) (Figures.pp_lock_table par)

(* ------------------------------------------------------------------ *)
(* Pinned outputs.                                                     *)
(* ------------------------------------------------------------------ *)

(* MD5s recorded before the token lock joined [Locks]: the lock table
   of every lock under every protocol (fifteen points, each verifying
   its counter and quiescence), and the report identity of tiny
   lock-using apps.  The -j case above compares two runs of one build,
   so a change that moved every run the same way would pass it; this
   one would not.  The table is pinned at one domain and windowed. *)
let md5 s = Digest.to_hex (Digest.string s)

let test_pinned_lock_table () =
  let specs =
    List.concat_map
      (fun lock -> List.map (fun protocol -> (lock, protocol, 2, 4)) [ "mgs"; "hlrc"; "ivy" ])
      Locks.all
  in
  List.iter
    (fun par ->
      Alcotest.(check string)
        (Printf.sprintf "lock table, par=%d" par)
        "178343c4ffe7c40ad29468dbbcd39da9"
        (md5 (Figures.pp_lock_table (Micro.lock_family ~iters:2 ~par specs))))
    [ 1; 2 ]

let test_pinned_app_reports () =
  let ident w =
    md5
      (Mgs.Report.ident
         (Mgs_harness.Sweep.run_point ~protocol:"mgs" ~nprocs:8 ~cluster:2 w)
           .Mgs_harness.Sweep.report)
  in
  let water lock = Mgs_apps.Water.workload { Mgs_apps.Water.tiny with lock } in
  let tsp lock = Mgs_apps.Tsp.workload { Mgs_apps.Tsp.tiny with lock } in
  List.iter
    (fun (what, w, want) -> Alcotest.(check string) what want (ident w))
    [
      ("water token", water Token, "a8d82896ef7cf6d70a0e92585641b1d5");
      ("tsp token", tsp Token, "68bc60cc5315f990c4a2a505010ef402");
      ("water mcs", water Mcs, "638a42557f8422051c5004ddf922b318");
      ("tsp mcs", tsp Mcs, "68711b34a4359634dd9fb1fe48dab5de");
      ( "water-kernel",
        Mgs_apps.Water_kernel.workload Mgs_apps.Water_kernel.tiny,
        "2d839b1bdaeaac0ba1b80d0582b2c74d" );
    ]

(* Water-kernel's molecule locks are visible to the machine: each
   registers a sync hook, so [assert_quiescent] reaches them. *)
let test_water_kernel_hooks () =
  let p = Mgs_apps.Water_kernel.tiny in
  let m = make () in
  ignore ((Mgs_apps.Water_kernel.workload p).Mgs_harness.Sweep.prepare m);
  let locks =
    List.filter (fun h -> h.Mgs.State.sh_name = "lock:token") m.Mgs.State.sync_hooks
  in
  Alcotest.(check int) "one hook per molecule lock" p.Mgs_apps.Water_kernel.nmol
    (List.length locks)

(* ------------------------------------------------------------------ *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mutex; prop_mutex_faulty; prop_fifo; prop_fifo_faulty ]

let () =
  Alcotest.run "locks"
    [
      ( "registry",
        [
          Alcotest.test_case "all five algorithms registered" `Quick (fun () ->
              List.iter
                (fun n -> Alcotest.(check string) n n Locks.(name_of (of_name n)))
                [ "token"; "tas"; "ticket"; "mcs"; "clh" ];
              Alcotest.(check (list string)) "names sorted"
                [ "clh"; "mcs"; "tas"; "ticket"; "token" ] (Locks.names ());
              Alcotest.(check bool) "unknown name rejected" true
                (try
                   ignore (Locks.of_name "bogus");
                   false
                 with Invalid_argument _ -> true));
          Alcotest.test_case "grant bound is the token's alone" `Quick (fun () ->
              List.iter
                (fun kind ->
                  Alcotest.(check bool) (Locks.name_of kind) true
                    (try
                       ignore (Locks.make (make ()) ~grant_bound:1 kind);
                       kind = Token
                     with Invalid_argument _ -> kind <> Token))
                Locks.all);
        ] );
      ("counters", [ Alcotest.test_case "one run's lock counters" `Quick test_lock_counters ]);
      ( "partition",
        [ Alcotest.test_case "partitioned acquire" `Quick test_partitioned_acquire ] );
      ( "determinism",
        [
          Alcotest.test_case "-j N byte identity" `Quick test_lock_family_jobs_identical;
          Alcotest.test_case "pinned lock table" `Quick test_pinned_lock_table;
          Alcotest.test_case "pinned app reports" `Quick test_pinned_app_reports;
        ] );
      ( "machine",
        [ Alcotest.test_case "water-kernel lock hooks" `Quick test_water_kernel_hooks ] );
      ("properties", qsuite);
    ]
