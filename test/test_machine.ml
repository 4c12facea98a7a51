(* Tests for the machine model: topology arithmetic, CPU accounting
   (the bucket/clock contract that the runtime breakdowns rely on), and
   cost parameters; and the protocol counter table as a run reports
   it. *)

module Topo = Mgs_machine.Topology
module Cpu = Mgs_machine.Cpu
module Costs = Mgs_machine.Costs

(* --- topology --------------------------------------------------------- *)

let test_topology_basic () =
  let t = Topo.create ~nprocs:16 ~cluster:4 in
  Alcotest.(check int) "nssmps" 4 t.Topo.nssmps;
  Alcotest.(check int) "ssmp of 0" 0 (Topo.ssmp_of_proc t 0);
  Alcotest.(check int) "ssmp of 7" 1 (Topo.ssmp_of_proc t 7);
  Alcotest.(check int) "first proc of ssmp 2" 8 (Topo.first_proc_of_ssmp t 2);
  Alcotest.(check (list int)) "procs of ssmp 3" [ 12; 13; 14; 15 ] (Topo.procs_of_ssmp t 3);
  Alcotest.(check bool) "same ssmp" true (Topo.same_ssmp t 5 6);
  Alcotest.(check bool) "different ssmp" false (Topo.same_ssmp t 3 4);
  Alcotest.(check bool) "not single" false (Topo.single_ssmp t);
  Alcotest.(check bool) "single when C=P" true (Topo.single_ssmp (Topo.create ~nprocs:8 ~cluster:8))

let test_topology_validation () =
  Alcotest.check_raises "cluster must divide"
    (Invalid_argument "Topology.create: cluster must divide nprocs") (fun () ->
      ignore (Topo.create ~nprocs:6 ~cluster:4));
  Alcotest.check_raises "cluster range" (Invalid_argument "Topology.create: cluster")
    (fun () -> ignore (Topo.create ~nprocs:4 ~cluster:8));
  let t = Topo.create ~nprocs:4 ~cluster:2 in
  Alcotest.check_raises "proc range" (Invalid_argument "Topology.ssmp_of_proc") (fun () ->
      ignore (Topo.ssmp_of_proc t 4))

let prop_topology_partition =
  QCheck2.Test.make ~name:"SSMPs partition the processors" ~count:100
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 5))
    (fun (a, b) ->
      let cluster = 1 lsl a in
      let nprocs = cluster * (1 lsl b) in
      let t = Topo.create ~nprocs ~cluster in
      let all = List.concat_map (Topo.procs_of_ssmp t) (List.init t.Topo.nssmps (fun s -> s)) in
      all = List.init nprocs (fun p -> p)
      && List.for_all
           (fun p -> List.mem p (Topo.procs_of_ssmp t (Topo.ssmp_of_proc t p)))
           (List.init nprocs (fun p -> p)))

(* --- cpu accounting ---------------------------------------------------- *)

let test_cpu_advance () =
  let c = Cpu.create 0 in
  Cpu.advance c Cpu.User 100;
  Cpu.advance c Cpu.Lock 50;
  Cpu.advance c Cpu.User 25;
  Alcotest.(check int) "clock" 175 c.Cpu.clock;
  Alcotest.(check int) "user bucket" 125 (Cpu.bucket_cycles c Cpu.User);
  Alcotest.(check int) "lock bucket" 50 (Cpu.bucket_cycles c Cpu.Lock);
  Alcotest.(check int) "total = clock" c.Cpu.clock (Cpu.total_cycles c)

let test_cpu_catch_up () =
  let c = Cpu.create 0 in
  Cpu.advance c Cpu.User 10;
  Cpu.catch_up_to c Cpu.Barrier 60;
  Alcotest.(check int) "caught up" 60 c.Cpu.clock;
  Alcotest.(check int) "gap charged to barrier" 50 (Cpu.bucket_cycles c Cpu.Barrier);
  Cpu.catch_up_to c Cpu.Barrier 30;
  Alcotest.(check int) "no rewind" 60 c.Cpu.clock

let test_cpu_occupy_and_sync () =
  let c = Cpu.create 0 in
  (* a handler occupies the processor while the fiber is at 0 *)
  let fin = Cpu.occupy c ~at:20 ~cost:30 in
  Alcotest.(check int) "completion" 50 fin;
  Alcotest.(check int) "no bucket charge at occupy" 0 (Cpu.total_cycles c);
  (* back-to-back handlers queue on busy_until *)
  let fin2 = Cpu.occupy c ~at:10 ~cost:5 in
  Alcotest.(check int) "serialized" 55 fin2;
  (* the fiber then absorbs the stolen cycles into MGS *)
  Cpu.sync_busy c;
  Alcotest.(check int) "clock pushed" 55 c.Cpu.clock;
  Alcotest.(check int) "charged to MGS" 55 (Cpu.bucket_cycles c Cpu.Mgs)

let test_cpu_resume_charge () =
  let c = Cpu.create 0 in
  Cpu.advance c Cpu.User 10;
  ignore (Cpu.occupy c ~at:10 ~cost:20);
  (* a fiber blocked on a lock resumes at t=100: handler occupancy up to
     30 goes to MGS, the rest of the wait to Lock *)
  Cpu.resume_charge c Cpu.Lock 100;
  Alcotest.(check int) "clock" 100 c.Cpu.clock;
  Alcotest.(check int) "mgs part" 20 (Cpu.bucket_cycles c Cpu.Mgs);
  Alcotest.(check int) "lock part" 70 (Cpu.bucket_cycles c Cpu.Lock)

let test_cpu_negative () =
  let c = Cpu.create 0 in
  Alcotest.check_raises "negative advance" (Invalid_argument "Cpu.advance: negative cycles")
    (fun () -> Cpu.advance c Cpu.User (-1));
  Alcotest.check_raises "negative occupy" (Invalid_argument "Cpu.occupy: negative cost")
    (fun () -> ignore (Cpu.occupy c ~at:0 ~cost:(-1)))

(* Invariant behind the runtime breakdowns: buckets always sum to the
   clock, whatever the interleaving of operations. *)
let prop_cpu_buckets_sum_to_clock =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun n -> `Advance (n mod 500)) (int_bound 499);
          map2 (fun a c -> `Occupy (a mod 300, c mod 100)) (int_bound 299) (int_bound 99);
          return `Sync;
          map (fun t -> `Resume (t mod 1000)) (int_bound 999);
        ])
  in
  QCheck2.Test.make ~name:"bucket totals equal the clock" ~count:300
    QCheck2.Gen.(list op_gen)
    (fun ops ->
      let c = Cpu.create 0 in
      List.iter
        (fun op ->
          match op with
          | `Advance n -> Cpu.advance c Cpu.User n
          | `Occupy (a, cost) -> ignore (Cpu.occupy c ~at:a ~cost)
          | `Sync -> Cpu.sync_busy c
          | `Resume t -> Cpu.resume_charge c Cpu.Barrier t)
        ops;
      Cpu.total_cycles c = c.Cpu.clock)

(* --- costs -------------------------------------------------------------- *)

let test_costs_lan_override () =
  let c = Costs.with_lan_latency Costs.default 0 in
  Alcotest.(check int) "latency" 0 c.Costs.lan.latency;
  Alcotest.(check int) "original untouched" 1000 Costs.default.Costs.lan.latency;
  Alcotest.(check int) "other fields preserved" Costs.default.Costs.proto.msg_send
    c.Costs.proto.msg_send

let test_costs_tlb_fill_sum () =
  (* the TLB fill cost of Table 3 is the sum of the svm fault path *)
  let s = Costs.default.Costs.svm in
  Alcotest.(check int) "fault path sums to 1037" 1037
    (s.fault_entry + s.map_lock + s.table_lookup + s.tlb_write)

(* --- counters ----------------------------------------------------------- *)

(* [Pstats.pp] is the one hand-written format over the counter snapshot.
   Each run switches on one of its omit-when-zero groups (none, the
   transport's, the MCS lock's, the adaptive layer's); the lines
   were captured from the record-per-counter implementation that the
   counter table replaced. *)
let test_pstats_line () =
  let line ?faults ?adapt w =
    let r =
      (Mgs_harness.Sweep.run_point ?faults ?adapt ~nprocs:8 ~cluster:2 w)
        .Mgs_harness.Sweep.report
    in
    Format.asprintf "%a" Mgs.Pstats.pp r.Mgs.Report.pstats
  in
  let jacobi = Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny in
  let water lock = Mgs_apps.Water.workload { Mgs_apps.Water.tiny with Mgs_apps.Water.lock } in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    [
      ( "plain",
        "tlb_fills=27 rreq=10 wreq=13 upgrades=7 rel=21 rel_ops=21 inv=19 \
         1winv=5 pinv=36 diffs=17 diff_words=182 1wdata=4 1wclean=1 acks=2 \
         syncs=10 sync_wait=76748 rel_wait=568549 fetch_wait=387038 \
         upgrade_wait=58437",
        line jacobi );
      ( "faults",
        "tlb_fills=27 rreq=10 wreq=15 upgrades=7 rel=21 rel_ops=21 inv=21 \
         1winv=6 pinv=38 diffs=18 diff_words=193 1wdata=5 1wclean=1 acks=3 \
         syncs=11 sync_wait=79749 rel_wait=614175 fetch_wait=460307 \
         upgrade_wait=58437 net_retries=6 net_dups=12 net_timeouts=6",
        line ~faults:(Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.5) jacobi
      );
      ( "mcs",
        "tlb_fills=285 rreq=173 wreq=3 upgrades=171 rel=296 rel_ops=292 inv=172 \
         1winv=60 pinv=316 diffs=116 diff_words=684 1wdata=60 1wclean=0 acks=56 \
         syncs=20 sync_wait=34640 rel_wait=6700932 fetch_wait=830934 \
         upgrade_wait=1093021 lock_msgs=1096 lock_handoffs=200 \
         lock_wait=3456042",
        line (water Mgs_sync.Locks.Mcs) );
      ( "adapt",
        "tlb_fills=277 rreq=178 wreq=5 upgrades=174 rel=296 rel_ops=292 inv=179 \
         1winv=55 pinv=319 diffs=127 diff_words=715 1wdata=55 1wclean=0 acks=52 \
         syncs=21 sync_wait=44310 rel_wait=6978488 fetch_wait=1009942 \
         upgrade_wait=1192254 adapt_reclass=2 adapt_migs=2 adapt_fwds=4 \
         adapt_yields=0 adapt_res=73/0/0",
        line ~adapt:true (water Mgs_sync.Locks.Token) );
    ]

(* The same pin under the other two engines, which share MGS's fault
   path: tiny jacobi and tiny water (token lock) at P=8 C=2, runtime
   plus the counter line, captured before the engines shared it. *)
let test_hlrc_ivy_pinned () =
  let cell protocol w =
    let r =
      (Mgs_harness.Sweep.run_point ~protocol ~nprocs:8 ~cluster:2 w)
        .Mgs_harness.Sweep.report
    in
    Format.asprintf "runtime=%d %a" r.Mgs.Report.runtime Mgs.Pstats.pp r.Mgs.Report.pstats
  in
  let jacobi = Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny in
  let water =
    Mgs_apps.Water.workload { Mgs_apps.Water.tiny with lock = Mgs_sync.Locks.Token }
  in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    [
      ( "hlrc jacobi",
        "runtime=129670 tlb_fills=27 rreq=12 wreq=4 upgrades=8 rel=21 rel_ops=21 \
         inv=12 1winv=0 pinv=0 diffs=21 diff_words=224 1wdata=0 1wclean=0 acks=0 \
         syncs=0 sync_wait=0 rel_wait=267700 fetch_wait=162511 upgrade_wait=0",
        cell "hlrc" jacobi );
      ( "hlrc water",
        "runtime=1780948 tlb_fills=445 rreq=115 wreq=8 upgrades=113 rel=275 \
         rel_ops=292 inv=119 1winv=0 pinv=0 diffs=275 diff_words=984 1wdata=0 \
         1wclean=0 acks=0 syncs=0 sync_wait=0 rel_wait=3280288 fetch_wait=321075 \
         upgrade_wait=0",
        cell "hlrc" water );
      ( "ivy jacobi",
        "runtime=366772 tlb_fills=26 rreq=10 wreq=21 upgrades=2 rel=0 rel_ops=0 \
         inv=24 1winv=2 pinv=45 diffs=0 diff_words=0 1wdata=0 1wclean=0 acks=0 \
         syncs=0 sync_wait=0 rel_wait=0 fetch_wait=921454 upgrade_wait=0",
        cell "ivy" jacobi );
      ( "ivy water",
        "runtime=3044302 tlb_fills=328 rreq=96 wreq=150 upgrades=145 rel=0 rel_ops=0 \
         inv=185 1winv=70 pinv=289 diffs=0 diff_words=0 1wdata=0 1wclean=0 acks=0 \
         syncs=0 sync_wait=0 rel_wait=0 fetch_wait=5964862 upgrade_wait=0",
        cell "ivy" water );
    ]

(* A run whose MCS lock, adaptive layer and lossy LAN move each counter
   group on several shards at once counts into every SSMP's row. *)
let test_every_row_counted () =
  let cfg = Mgs.Machine.config ~adapt:true ~par_jobs:2 ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  Mgs.Machine.set_faults m (Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.5);
  let w = Mgs_apps.Water.workload { Mgs_apps.Water.tiny with lock = Mgs_sync.Locks.Mcs } in
  let body, check = w.Mgs_harness.Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  check m;
  let rows = m.Mgs.State.counters in
  let moved = List.filter (Array.exists (fun v -> v <> 0)) (Array.to_list rows) in
  Alcotest.(check int) "every row counted" (Array.length rows) (List.length moved);
  List.iter
    (fun k ->
      Alcotest.(check bool) "lock, adaptive and sync columns moved" true
        (Mgs.State.total m k > 0))
    Mgs.Pstats.[ lock_msgs; adapt_res_mw; lock_acquires; barrier_episodes ]

(* A machine runs once: nothing restores its counters, LAN watermarks,
   fault streams or lock queues, so a second run is refused. *)
let test_runs_once () =
  let m = Mgs.Machine.create (Mgs.Machine.config ~nprocs:8 ~cluster:2 ()) in
  let body, verify = (Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny).Mgs_harness.Sweep.prepare m in
  Alcotest.(check bool) "first run completes" true
    (Mgs.Report.completed (Mgs.Machine.run m body));
  verify m;
  Alcotest.check_raises "second run refused"
    (Invalid_argument "Machine.run: a machine runs once") (fun () ->
      ignore (Mgs.Machine.run m body))

(* A partition abandons a windowed run mid-flight; the refusal comes
   before the engine is touched, so the abandoned run's clock and event
   count stand. *)
let test_partitioned_runs_once () =
  let m = Mgs.Machine.create (Mgs.Machine.config ~par_jobs:2 ~nprocs:4 ~cluster:2 ()) in
  Mgs.Machine.set_faults m ~seed:7 (Mgs_net.Fault.of_string "drop=1.0,retries=3");
  let cell = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let body ctx = if Mgs.Api.proc ctx = 2 then Mgs.Api.write ctx cell 1.0 in
  (match (Mgs.Machine.run m body).Mgs.Report.outcome with
  | Mgs.Report.Partitioned _ -> ()
  | _ -> Alcotest.fail "expected a partitioned outcome");
  let sim = Mgs.Machine.sim m in
  let now = Mgs_engine.Sim.now sim and executed = Mgs_engine.Sim.events_executed sim in
  Alcotest.check_raises "second run refused"
    (Invalid_argument "Machine.run: a machine runs once") (fun () ->
      ignore (Mgs.Machine.run m body));
  Alcotest.(check int) "clock untouched" now (Mgs_engine.Sim.now sim);
  Alcotest.(check int) "no event executed" executed (Mgs_engine.Sim.events_executed sim)

(* An all-zero spec uninstalls a plan: a machine whose lossy plan was
   replaced by [Fault.none] runs exactly like one never faulted. *)
let test_zero_spec_uninstalls () =
  let run specs =
    let m = Mgs.Machine.create (Mgs.Machine.config ~nprocs:8 ~cluster:2 ()) in
    List.iter (Mgs.Machine.set_faults m) specs;
    let body, verify =
      (Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny).Mgs_harness.Sweep.prepare m
    in
    let r = Mgs.Machine.run m body in
    verify m;
    (Mgs.Report.ident r, (Mgs_net.Lan.stats m.Mgs.State.lan).Mgs_net.Lan.retransmits)
  in
  let lossy = Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.5 in
  let plain, _ = run [] in
  let _, retransmits = run [ lossy ] in
  Alcotest.(check bool) "the plan retransmits" true (retransmits > 0);
  let lifted, lifted_retransmits = run [ lossy; Mgs_net.Fault.none ] in
  Alcotest.(check int) "no retransmission" 0 lifted_retransmits;
  Alcotest.(check string) "the report of a never-faulted machine" plain lifted

(* Checking leaves the engine alone: with the shadow oracle and the
   invariant checker both on, a par-2 run still opens lookahead windows
   on two domains, records no trace, and stays clean. *)
let test_checked_shadow_windowed () =
  let cfg = Mgs.Machine.config ~shadow:true ~par_jobs:2 ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  let checker = Mgs.Machine.enable_checker m in
  let body, verify = (Mgs_apps.Water.workload Mgs_apps.Water.tiny).Mgs_harness.Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  Mgs.Machine.assert_quiescent m;
  verify m;
  Alcotest.(check bool) "windows opened" true (Mgs_engine.Sim.windows (Mgs.Machine.sim m) > 0);
  Alcotest.(check bool) "no trace recorded" true (Option.is_none (Mgs.Machine.trace m));
  Alcotest.(check int) "no invariant violations" 0 (Mgs.Invariant.count checker);
  Alcotest.(check int) "no shadow mismatches" 0 (Mgs.Machine.shadow_mismatches m)

(* An application's span store and the machine trace are one store
   whichever comes first; the store alone records nothing of the
   machine, and a trace installed over it records everything. *)
let test_spans_compose_with_trace () =
  let machine () = Mgs.Machine.create (Mgs.Machine.config ~nprocs:8 ~cluster:2 ()) in
  let run_water m =
    let body, verify =
      (Mgs_apps.Water.workload Mgs_apps.Water.tiny).Mgs_harness.Sweep.prepare m
    in
    ignore (Mgs.Machine.run m body);
    verify m
  in
  let m = machine () in
  let sp = Mgs.Machine.enable_spans m in
  Alcotest.(check bool) "trace is the span store" true
    (match Mgs.Machine.trace m with Some tr -> tr == sp | None -> false);
  Alcotest.(check bool) "enable_trace adopts it" true (Mgs.Machine.enable_trace m == sp);
  run_water m;
  if Mgs_obs.Trace.emitted sp = 0 then Alcotest.fail "adopted store recorded no trace row";
  let m = machine () in
  let tr = Mgs.Machine.enable_trace m in
  Alcotest.(check bool) "enable_spans returns the trace" true (Mgs.Machine.enable_spans m == tr);
  let m = machine () in
  let sp = Mgs.Machine.enable_spans m in
  run_water m;
  Alcotest.(check int) "no trace row" 0 (Mgs_obs.Trace.emitted sp);
  Alcotest.(check int) "no span" 0 (Mgs_obs.Span.count (Mgs_obs.Trace.spans sp))

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_topology_partition; prop_cpu_buckets_sum_to_clock ]

let () =
  Alcotest.run "machine"
    [
      ( "topology",
        [
          Alcotest.test_case "basic" `Quick test_topology_basic;
          Alcotest.test_case "validation" `Quick test_topology_validation;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "advance" `Quick test_cpu_advance;
          Alcotest.test_case "catch up" `Quick test_cpu_catch_up;
          Alcotest.test_case "occupy + sync_busy" `Quick test_cpu_occupy_and_sync;
          Alcotest.test_case "resume_charge split" `Quick test_cpu_resume_charge;
          Alcotest.test_case "negative rejected" `Quick test_cpu_negative;
        ] );
      ( "costs",
        [
          Alcotest.test_case "lan override" `Quick test_costs_lan_override;
          Alcotest.test_case "tlb fill decomposition" `Quick test_costs_tlb_fill_sum;
        ] );
      ( "counters",
        [
          Alcotest.test_case "pstats line pinned" `Quick test_pstats_line;
          Alcotest.test_case "hlrc and ivy lines pinned" `Quick test_hlrc_ivy_pinned;
          Alcotest.test_case "every row counted" `Quick test_every_row_counted;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "a machine runs once" `Quick test_runs_once;
          Alcotest.test_case "a partitioned machine runs once" `Quick
            test_partitioned_runs_once;
          Alcotest.test_case "a zero spec uninstalls faults" `Quick test_zero_spec_uninstalls;
        ] );
      ( "checking",
        [
          Alcotest.test_case "checked shadow run stays windowed" `Quick
            test_checked_shadow_windowed;
        ] );
      ( "recording",
        [
          Alcotest.test_case "enable_spans composes with enable_trace" `Quick
            test_spans_compose_with_trace;
        ] );
      ("properties", qsuite);
    ]
