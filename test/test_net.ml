(* Tests for the LAN model and the active-message layer: fixed latency,
   sender occupancy, per-channel FIFO delivery, intra-SSMP fast path,
   handler occupancy on the destination processor — and the reliable
   transport that keeps delivery exactly-once and in order when a fault
   plan makes the wire lossy. *)

module Sim = Mgs_engine.Sim
module Lan = Mgs_net.Lan
module Fault = Mgs_net.Fault
module Envelope = Mgs_net.Envelope
module Am = Mgs_am.Am
module Costs = Mgs_machine.Costs
module Topo = Mgs_machine.Topology
module Cpu = Mgs_machine.Cpu

let costs = Costs.default

(* One shard per SSMP, as Machine.create builds the simulator. *)
let sim_for nssmps =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:nssmps ~lookahead:costs.Costs.lan.latency;
  sim

let env ~src ~dst ~words = Envelope.make ~src_ssmp:src ~dst_ssmp:dst ~words ()

let test_lan_latency () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let arrived = ref (-1) in
  Lan.send lan (env ~src:0 ~dst:1 ~words:0) ~at:0 (fun t -> arrived := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "fixed latency" costs.Costs.lan.latency !arrived

let test_lan_dma () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let arrived = ref (-1) in
  Lan.send lan (env ~src:0 ~dst:1 ~words:256) ~at:0 (fun t -> arrived := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "latency + dma"
    (costs.Costs.lan.latency + (256 * costs.Costs.proto.dma_per_word))
    !arrived

let test_lan_sender_occupancy () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let t1 = ref 0 and t2 = ref 0 in
  Lan.send lan (env ~src:0 ~dst:1 ~words:0) ~at:0 (fun t -> t1 := t);
  Lan.send lan (env ~src:0 ~dst:2 ~words:0) ~at:0 (fun t -> t2 := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "second departs after occupancy" costs.Costs.lan.send_occupancy
    (!t2 - !t1)

let test_lan_fifo_no_overtake () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let order = ref [] in
  (* a bulk message followed by a short one on the same channel *)
  Lan.send lan (env ~src:0 ~dst:1 ~words:256) ~at:0 (fun _ -> order := `Bulk :: !order);
  Lan.send lan (env ~src:0 ~dst:1 ~words:0) ~at:1 (fun _ -> order := `Short :: !order);
  ignore (Sim.run sim ());
  Alcotest.(check bool) "bulk delivered first" true (List.rev !order = [ `Bulk; `Short ])

let test_lan_intra_fast_path () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let arrived = ref (-1) in
  Lan.send lan (env ~src:2 ~dst:2 ~words:0) ~at:0 (fun t -> arrived := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "intra cost only" costs.Costs.proto.intra_msg !arrived;
  Alcotest.(check int) "not counted as LAN traffic" 0 (Lan.stats lan).Lan.messages

let test_lan_stats () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  Lan.send lan (env ~src:0 ~dst:1 ~words:10) ~at:0 (fun _ -> ());
  Lan.send lan (env ~src:1 ~dst:0 ~words:20) ~at:0 (fun _ -> ());
  ignore (Sim.run sim ());
  let s = Lan.stats lan in
  Alcotest.(check int) "messages" 2 s.Lan.messages;
  Alcotest.(check int) "words" 30 s.Lan.data_words

(* --- fault specs ------------------------------------------------------ *)

let test_fault_spec_parse () =
  let s = Fault.of_string "drop=0.1,dup=0.05,delay=0.2:2000,reorder=0.1,slow=1:2.0,rto=8000,retries=6" in
  Alcotest.(check (float 1e-9)) "drop" 0.1 s.Fault.drop;
  Alcotest.(check (float 1e-9)) "dup" 0.05 s.Fault.dup;
  Alcotest.(check (float 1e-9)) "delay_p" 0.2 s.Fault.delay_p;
  Alcotest.(check int) "delay_max" 2000 s.Fault.delay_max;
  Alcotest.(check (float 1e-9)) "reorder" 0.1 s.Fault.reorder;
  Alcotest.(check bool) "slow" true (s.Fault.slow = [ (1, 2.0) ]);
  Alcotest.(check int) "rto" 8000 s.Fault.rto;
  Alcotest.(check int) "retries" 6 s.Fault.max_retries;
  (* to_string round-trips *)
  Alcotest.(check bool) "roundtrip" true (Fault.of_string (Fault.to_string s) = s);
  Alcotest.(check bool) "none" true (Fault.is_zero (Fault.of_string "none"));
  (match Fault.of_string "frob=1" with
  | _ -> Alcotest.fail "unknown key accepted"
  | exception Invalid_argument _ -> ());
  match Fault.of_string "drop=2.0" with
  | _ -> Alcotest.fail "out-of-range probability accepted"
  | exception Invalid_argument _ -> ()

let test_fault_scale () =
  let s = Fault.scale Fault.default_chaos ~intensity:0.5 in
  Alcotest.(check (float 1e-9)) "scaled drop" 0.025 s.Fault.drop;
  Alcotest.(check int) "delay bound kept" Fault.default_chaos.Fault.delay_max s.Fault.delay_max;
  Alcotest.(check bool) "zero intensity is zero" true
    (Fault.is_zero (Fault.scale Fault.default_chaos ~intensity:0.0))

(* A plan whose rates are all zero must not change timing: the reliable
   transport adds sequencing and acks, but the payload's delivery time
   is exactly the perfect-wire one. *)
let test_zero_rate_plan_timing () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  Lan.set_fault_plan lan (Some (Fault.make Fault.none ~seed:7 ~nssmps:4));
  let arrived = ref (-1) in
  Lan.send lan (env ~src:0 ~dst:1 ~words:256) ~at:0 (fun t -> arrived := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "same delivery time as perfect wire"
    (costs.Costs.lan.latency + (256 * costs.Costs.proto.dma_per_word))
    !arrived;
  Alcotest.(check int) "no retransmits" 0 (Lan.stats lan).Lan.retransmits;
  Alcotest.(check int) "one ack" 1 (Lan.stats lan).Lan.acks;
  Alcotest.(check int) "nothing unacked at quiescence" 0 (Lan.unacked lan)

let test_slowdown_scales_latency () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let spec = { Fault.none with Fault.slow = [ (1, 2.0) ] } in
  Lan.set_fault_plan lan (Some (Fault.make spec ~seed:7 ~nssmps:4));
  let to_slow = ref (-1) and to_healthy = ref (-1) in
  Lan.send lan (env ~src:0 ~dst:1 ~words:0) ~at:0 (fun t -> to_slow := t);
  ignore (Sim.run sim ());
  (* second send after the first completes, so occupancy does not couple them *)
  Lan.send lan (env ~src:2 ~dst:3 ~words:0) ~at:!to_slow (fun t -> to_healthy := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "degraded SSMP pays doubled latency"
    (2 * costs.Costs.lan.latency) !to_slow;
  Alcotest.(check int) "healthy channel unaffected" costs.Costs.lan.latency
    (!to_healthy - !to_slow)

(* drop=1.0: no transmission or ack ever gets through, so the sender
   retries up to the cap and then declares the channel partitioned. *)
let test_partition_on_retry_exhaustion () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let spec = { Fault.none with Fault.drop = 1.0; rto = 5000; max_retries = 2 } in
  Lan.set_fault_plan lan (Some (Fault.make spec ~seed:7 ~nssmps:4));
  Lan.send lan (env ~src:0 ~dst:1 ~words:0) ~at:0 (fun _ ->
      Alcotest.fail "dropped message must not deliver");
  (match Sim.run sim () with
  | _ -> Alcotest.fail "expected Net_partition"
  | exception Lan.Net_partition p ->
    Alcotest.(check int) "src" 0 p.Lan.part_src_ssmp;
    Alcotest.(check int) "dst" 1 p.Lan.part_dst_ssmp;
    Alcotest.(check int) "retries exhausted" 2 p.Lan.part_retries);
  Alcotest.(check int) "two retransmissions" 2 (Lan.stats lan).Lan.retransmits;
  Alcotest.(check int) "three timer expiries" 3 (Lan.stats lan).Lan.timeouts

let test_lossy_delivers_exactly_once () =
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  let spec =
    { Fault.none with Fault.drop = 0.4; dup = 0.3; delay_p = 0.3; delay_max = 1500;
      reorder = 0.2; max_retries = 30 }
  in
  Lan.set_fault_plan lan (Some (Fault.make spec ~seed:11 ~nssmps:4));
  let n = 60 in
  let delivered = Array.make n 0 in
  let order = ref [] in
  for i = 0 to n - 1 do
    Lan.send lan (env ~src:0 ~dst:1 ~words:(8 * (i mod 5))) ~at:0 (fun _ ->
        delivered.(i) <- delivered.(i) + 1;
        order := i :: !order)
  done;
  ignore (Sim.run sim ());
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "message %d delivered %d times" i c)
    delivered;
  Alcotest.(check (list int)) "in posting order" (List.init n Fun.id) (List.rev !order);
  Alcotest.(check int) "nothing unacked at quiescence" 0 (Lan.unacked lan);
  Alcotest.(check bool) "faults actually fired" true
    ((Lan.stats lan).Lan.retransmits > 0 && (Lan.stats lan).Lan.dup_drops > 0)

(* --- active messages -------------------------------------------------- *)

let make_am () =
  let sim = sim_for 2 in
  let topo = Topo.create ~nprocs:8 ~cluster:4 in
  let cpus = Array.init 8 Cpu.create in
  let lan = Lan.create sim costs ~nssmps:2 in
  let am = Am.create sim costs topo ~lan ~cpus in
  (sim, am, cpus)

let test_am_handler_occupancy () =
  let sim, am, cpus = make_am () in
  let fin = ref (-1) in
  Am.post am ~tag:"t" ~src:0 ~dst:5 ~words:0 ~cost:100 (fun t -> fin := t);
  ignore (Sim.run sim ());
  let expected = costs.Costs.lan.latency + costs.Costs.proto.handler_dispatch + 100 in
  Alcotest.(check int) "completion time" expected !fin;
  Alcotest.(check int) "destination occupied" expected cpus.(5).Cpu.busy_until

let test_am_handlers_serialize () =
  let sim, am, cpus = make_am () in
  let fins = ref [] in
  Am.post am ~tag:"a" ~src:0 ~dst:5 ~words:0 ~cost:100 (fun t -> fins := t :: !fins);
  Am.post am ~tag:"b" ~src:1 ~dst:5 ~words:0 ~cost:100 (fun t -> fins := t :: !fins);
  ignore (Sim.run sim ());
  (match List.rev !fins with
  | [ f1; f2 ] ->
    Alcotest.(check int) "second handler queued behind first"
      (costs.Costs.proto.handler_dispatch + 100)
      (f2 - f1)
  | _ -> Alcotest.fail "expected two completions");
  ignore cpus

let test_am_intra_vs_inter () =
  let sim, am, _ = make_am () in
  let t_intra = ref 0 and t_inter = ref 0 in
  Am.post am ~tag:"i" ~src:0 ~dst:1 ~words:0 ~cost:0 (fun t -> t_intra := t);
  Am.post am ~tag:"x" ~src:0 ~dst:4 ~words:0 ~cost:0 (fun t -> t_inter := t);
  ignore (Sim.run sim ());
  Alcotest.(check bool) "intra much faster" true (!t_intra + 500 < !t_inter)

let test_am_counters () =
  let sim, am, _ = make_am () in
  Am.post am ~tag:"RREQ" ~src:0 ~dst:4 ~words:0 ~cost:0 (fun _ -> ());
  Am.post am ~tag:"RREQ" ~src:1 ~dst:4 ~words:0 ~cost:0 (fun _ -> ());
  Am.post am ~tag:"RACK" ~src:4 ~dst:0 ~words:0 ~cost:0 (fun _ -> ());
  ignore (Sim.run sim ());
  Alcotest.(check int) "tag count" 2 (Am.count am "RREQ");
  Alcotest.(check int) "other tag" 1 (Am.count am "RACK");
  Alcotest.(check int) "absent tag" 0 (Am.count am "INV");
  Alcotest.(check int) "total" 3 (Am.total_posted am)

let test_am_trace_envelope () =
  let sim, am, _ = make_am () in
  let tr = Mgs_obs.Trace.create () in
  Am.set_obs am (Some tr);
  Am.post am ~tag:"RREQ" ~src:1 ~dst:5 ~words:8 ~cost:0 (fun _ -> ());
  ignore (Sim.run sim ());
  match Mgs_obs.Trace.events tr with
  | [ e ] ->
    Alcotest.(check bool) "network event" true (e.engine = Mgs_obs.Event.Network);
    Alcotest.(check string) "tag" "RREQ" e.tag;
    Alcotest.(check int) "src" 1 e.src;
    Alcotest.(check int) "dst" 5 e.dst;
    Alcotest.(check int) "words" 8 e.words
  | l -> Alcotest.failf "expected one traced delivery, got %d" (List.length l)

let test_am_run_on () =
  let sim, am, cpus = make_am () in
  let fin = ref (-1) in
  Am.run_on am ~proc:3 ~at:50 ~cost:25 (fun t -> fin := t);
  ignore (Sim.run sim ());
  Alcotest.(check int) "occupied from at" 75 !fin;
  Alcotest.(check int) "busy_until" 75 cpus.(3).Cpu.busy_until

(* An untraced message allocates one closure and its two events' keys:
   a chain of cross-SSMP hops, each posted from the handler of the last,
   as the benchmark's [am_post] loop runs them. *)
let test_am_post_words () =
  let nprocs = 16 and cluster = 4 in
  let sim = sim_for 4 in
  let topo = Topo.create ~nprocs ~cluster in
  let lan = Lan.create sim costs ~nssmps:4 in
  let am = Am.create sim costs topo ~lan ~cpus:(Array.init nprocs Cpu.create) in
  let hops = 10_000 in
  let left = ref hops and cur = ref 0 in
  let rec hop (_ : int) =
    if !left > 0 then begin
      decr left;
      let src = !cur in
      let dst = (src + cluster) mod nprocs in
      cur := dst;
      Am.post am ~tag:"HOP" ~src ~dst ~words:0 ~cost:0 hop
    end
  in
  Sim.at_shard sim ~shard:0 0 (fun () -> hop 0);
  let w0 = Gc.minor_words () in
  ignore (Sim.run sim ());
  let per_hop = (Gc.minor_words () -. w0) /. float_of_int hops in
  Alcotest.(check int) "every hop posted" hops (Am.total_posted am);
  if per_hop >= 21.5 then Alcotest.failf "%.2f words per message, budget 21" per_hop

(* Property: per-channel arrival times never regress, whatever the mix
   of bulk and short messages. *)
let prop_lan_fifo =
  QCheck2.Test.make ~name:"per-channel arrivals are monotone" ~count:200
    QCheck2.Gen.(list (pair (int_bound 3) (int_bound 300)))
    (fun msgs ->
      let sim = sim_for 4 in
      let lan = Lan.create sim costs ~nssmps:4 in
      let last = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun (dst, words) ->
          Lan.send lan (env ~src:0 ~dst ~words) ~at:0 (fun t ->
              let prev = Option.value ~default:(-1) (Hashtbl.find_opt last dst) in
              if t < prev then ok := false;
              Hashtbl.replace last dst t))
        msgs;
      ignore (Sim.run sim ());
      !ok)

(* Random fault schedules and traffic mixes on a 4-SSMP wire.  Whatever
   drops, duplicates, delays, and reorders the plan injects, every
   message must reach its handler exactly once, per-channel delivery
   must follow posting order, and quiescence must leave nothing
   unacked. *)
let gen_chaos =
  QCheck2.Gen.(
    let* drop = float_bound_inclusive 0.5 in
    let* dup = float_bound_inclusive 0.5 in
    let* delay_p = float_bound_inclusive 0.5 in
    let* delay_max = int_bound 3000 in
    let* reorder = float_bound_inclusive 0.3 in
    let* seed = int_bound 10_000 in
    let* msgs = list_size (int_bound 80) (pair (pair (int_bound 3) (int_bound 3)) (int_bound 300)) in
    return (drop, dup, delay_p, delay_max, reorder, seed, msgs))

let run_chaos (drop, dup, delay_p, delay_max, reorder, seed, msgs) =
  let spec =
    { Fault.none with Fault.drop; dup; delay_p; delay_max; reorder; max_retries = 40 }
  in
  let sim = sim_for 4 in
  let lan = Lan.create sim costs ~nssmps:4 in
  Lan.set_fault_plan lan (Some (Fault.make spec ~seed ~nssmps:4));
  let deliveries = Hashtbl.create 64 in
  let chan_order = Hashtbl.create 16 in
  List.iteri
    (fun i ((src, dst), words) ->
      Lan.send lan (env ~src ~dst ~words) ~at:0 (fun t ->
          Hashtbl.replace deliveries i (1 + Option.value ~default:0 (Hashtbl.find_opt deliveries i));
          let key = (src, dst) in
          Hashtbl.replace chan_order key
            ((i, t) :: Option.value ~default:[] (Hashtbl.find_opt chan_order key))))
    msgs;
  ignore (Sim.run sim ());
  (lan, deliveries, chan_order, List.length msgs)

let prop_exactly_once =
  QCheck2.Test.make ~name:"lossy wire delivers exactly once, in channel order" ~count:60
    gen_chaos (fun input ->
      let lan, deliveries, chan_order, n = run_chaos input in
      let ok = ref (Lan.unacked lan = 0) in
      for i = 0 to n - 1 do
        if Option.value ~default:0 (Hashtbl.find_opt deliveries i) <> 1 then ok := false
      done;
      Hashtbl.iter
        (fun _ order ->
          (* recorded newest-first: indices must strictly decrease *)
          let rec mono = function
            | (i1, _) :: ((i2, _) :: _ as rest) -> i1 > i2 && mono rest
            | _ -> true
          in
          if not (mono order) then ok := false)
        chan_order;
      !ok)

let prop_chaos_deterministic =
  QCheck2.Test.make ~name:"same seed, same chaos" ~count:30 gen_chaos (fun input ->
      let lan1, _, order1, _ = run_chaos input in
      let lan2, _, order2, _ = run_chaos input in
      let s1 = Lan.stats lan1 and s2 = Lan.stats lan2 in
      let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
      s1.Lan.retransmits = s2.Lan.retransmits
      && s1.Lan.dup_drops = s2.Lan.dup_drops
      && s1.Lan.timeouts = s2.Lan.timeouts
      && s1.Lan.acks = s2.Lan.acks
      && sorted order1 = sorted order2)

(* Regression: exponential retransmit backoff must clamp instead of
   doubling forever.  Unbounded doubling overflows int after ~60
   unacknowledged retries, turning the RTO negative and collapsing the
   backoff into a zero-delay retransmission storm. *)
let test_rto_backoff_clamped () =
  let rto = ref 2000 in
  for step = 1 to 100 do
    let next = Lan.next_rto !rto in
    if next <= 0 then
      Alcotest.failf "rto went non-positive (%d) after %d doublings" next step;
    if next < !rto then
      Alcotest.failf "rto not monotone: %d -> %d at step %d" !rto next step;
    if next > Lan.rto_cap then
      Alcotest.failf "rto exceeds cap: %d > %d at step %d" next Lan.rto_cap step;
    rto := next
  done;
  Alcotest.(check int) "converges to the cap" Lan.rto_cap !rto;
  Alcotest.(check int) "cap is a fixed point" Lan.rto_cap (Lan.next_rto Lan.rto_cap);
  (* near-cap values jump straight to the cap rather than overflowing *)
  Alcotest.(check int) "no overflow past the cap" Lan.rto_cap
    (Lan.next_rto (Lan.rto_cap - 1))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lan_fifo; prop_exactly_once; prop_chaos_deterministic ]

let () =
  Alcotest.run "net"
    [
      ( "lan",
        [
          Alcotest.test_case "fixed latency" `Quick test_lan_latency;
          Alcotest.test_case "dma adds latency" `Quick test_lan_dma;
          Alcotest.test_case "sender occupancy" `Quick test_lan_sender_occupancy;
          Alcotest.test_case "fifo per channel" `Quick test_lan_fifo_no_overtake;
          Alcotest.test_case "intra fast path" `Quick test_lan_intra_fast_path;
          Alcotest.test_case "stats" `Quick test_lan_stats;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec parse/print" `Quick test_fault_spec_parse;
          Alcotest.test_case "spec scaling" `Quick test_fault_scale;
          Alcotest.test_case "zero-rate plan timing" `Quick test_zero_rate_plan_timing;
          Alcotest.test_case "degraded-SSMP slowdown" `Quick test_slowdown_scales_latency;
          Alcotest.test_case "partition on retry exhaustion" `Quick
            test_partition_on_retry_exhaustion;
          Alcotest.test_case "lossy exactly-once" `Quick test_lossy_delivers_exactly_once;
          Alcotest.test_case "retransmit backoff clamped" `Quick
            test_rto_backoff_clamped;
        ] );
      ( "am",
        [
          Alcotest.test_case "handler occupancy" `Quick test_am_handler_occupancy;
          Alcotest.test_case "handlers serialize" `Quick test_am_handlers_serialize;
          Alcotest.test_case "intra vs inter" `Quick test_am_intra_vs_inter;
          Alcotest.test_case "per-tag counters" `Quick test_am_counters;
          Alcotest.test_case "trace sees the envelope" `Quick test_am_trace_envelope;
          Alcotest.test_case "run_on" `Quick test_am_run_on;
          Alcotest.test_case "a message allocates 21 words" `Quick test_am_post_words;
        ] );
      ("properties", qsuite);
    ]
