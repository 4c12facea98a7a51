(* Additional fine-grained coverage: small API surfaces and invariants
   not exercised elsewhere. *)

module Pd = Mgs_mem.Pagedata
module Geom = Mgs_mem.Geom
module Costs = Mgs_machine.Costs

let small = Geom.create ~page_words:32 ()

(* diffs list offsets in strictly increasing order (merge code and the
   message-size accounting rely on a canonical form) *)
let prop_diff_sorted =
  QCheck2.Test.make ~name:"diff offsets strictly increase" ~count:200
    QCheck2.Gen.(list (pair (int_bound 31) (float_bound_exclusive 10.)))
    (fun writes ->
      let p = Pd.create small in
      let twin = Pd.twin_of p in
      List.iter
        (fun (i, v) ->
          p.(i) <- v +. 1.0;
          Pd.mark twin i)
        writes;
      let d = Pd.diff p ~twin in
      let offs = ref [] in
      Pd.iter_diff (fun i _ -> offs := i :: !offs) d;
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      sorted (List.rev !offs))

(* every default cost is positive (a zero or negative cost would break
   the accounting invariants silently) *)
let test_costs_positive () =
  let c = Costs.default in
  let all =
    [
      c.Costs.hardware.cache_hit; c.Costs.hardware.miss_local; c.Costs.hardware.miss_remote;
      c.Costs.hardware.miss_2party; c.Costs.hardware.miss_3party;
      c.Costs.hardware.remote_software; c.Costs.hardware.hw_dir_pointers;
      c.Costs.hardware.cache_line_slots; c.Costs.svm.array_translation;
      c.Costs.svm.pointer_translation; c.Costs.svm.fault_entry; c.Costs.svm.table_lookup;
      c.Costs.svm.tlb_write; c.Costs.svm.map_lock; c.Costs.proto.handler_dispatch;
      c.Costs.proto.msg_send; c.Costs.proto.intra_msg; c.Costs.proto.dma_per_word;
      c.Costs.proto.frame_alloc; c.Costs.proto.twin_alloc; c.Costs.proto.twin_per_word;
      c.Costs.proto.diff_per_word; c.Costs.proto.diff_word_out; c.Costs.proto.merge_per_word;
      c.Costs.proto.copy_per_word; c.Costs.proto.clean_per_line; c.Costs.proto.tlb_inv;
      c.Costs.proto.server_op; c.Costs.proto.duq_op; c.Costs.lan.send_occupancy;
      c.Costs.sync.lock_local_acquire; c.Costs.sync.lock_local_release;
      c.Costs.sync.barrier_local; c.Costs.sync.flat_barrier; c.Costs.sync.flat_lock;
    ]
  in
  List.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "cost %d positive" i) true (v > 0))
    all

(* duq_pending reflects unflushed writes and empties after release *)
let test_duq_pending () =
  let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:300 () in
  let m = Mgs.Machine.create cfg in
  let a = Mgs.Machine.alloc m ~words:600 ~home:(Mgs_mem.Allocator.On_proc 3) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Alcotest.(check int) "initially empty" 0 (Mgs.Proto.duq_pending m ~proc:0);
           (* two pages dirtied *)
           Mgs.Api.write ctx a 1.0;
           Mgs.Api.write ctx (a + 300) 2.0;
           Alcotest.(check int) "two pages pending" 2 (Mgs.Proto.duq_pending m ~proc:0);
           Mgs.Api.release ctx;
           Alcotest.(check int) "flushed" 0 (Mgs.Proto.duq_pending m ~proc:0)
         end))

(* peek sees through a retained MGS copy (master synced at 1WDATA) *)
let test_peek_retained () =
  let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:300 () in
  let m = Mgs.Machine.create cfg in
  let a = Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc 3) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx a 5.0;
           Mgs.Api.release ctx
         end));
  (* the copy is retained (single-writer), master must still be exact *)
  Alcotest.(check (float 0.)) "peek through retention" 5.0 (Mgs.Machine.peek m a)

(* HLRC single-page flush helper *)
let test_hlrc_flush_helper () =
  let cfg =
    Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:300
      ~protocol:Mgs.State.Protocol_hlrc ()
  in
  let m = Mgs.Machine.create cfg in
  let a = Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc 3) in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then begin
           Mgs.Api.write ctx a 9.0;
           Alcotest.(check (float 0.)) "master stale before flush" 0.0 (Mgs.Machine.peek m a);
           Mgs.Proto_hlrc.flush_page_fiber m ~proc:0
             ~vpn:(Geom.vpn_of_addr (Mgs.Machine.geom m) a);
           Alcotest.(check (float 0.)) "master current after" 9.0 (Mgs.Machine.peek m a);
           Mgs.Api.release ctx
         end));
  Mgs.Machine.assert_quiescent m

(* the protocol-name contract the CLI, sweeps and benches rely on *)
let test_protocol_names () =
  Alcotest.(check (list string))
    "sorted names" [ "hlrc"; "ivy"; "mgs" ] (Mgs.Protocol.names ());
  List.iter
    (fun n ->
      Alcotest.(check string) ("round trip " ^ n) n
        (Mgs.Protocol.name_of (Mgs.Protocol.proto_of_name n)))
    (Mgs.Protocol.names ());
  Alcotest.check_raises "unknown name lists the known ones"
    (Invalid_argument "unknown protocol \"tmk\" (known: hlrc, ivy, mgs)") (fun () ->
      ignore (Mgs.Protocol.proto_of_name "tmk"))

(* radix sort parameters and sequential reference *)
let test_radix_params () =
  Alcotest.(check int) "default passes" 4 (Mgs_apps.Radix.passes Mgs_apps.Radix.default);
  Alcotest.check_raises "indivisible digit"
    (Invalid_argument "Radix: key_bits must be a multiple of digit_bits") (fun () ->
      ignore
        (Mgs_apps.Radix.passes { Mgs_apps.Radix.default with Mgs_apps.Radix.digit_bits = 5 }));
  let p = Mgs_apps.Radix.tiny in
  let input = Mgs_apps.Radix.initial p and sorted = Mgs_apps.Radix.seq_reference p in
  Alcotest.(check int) "same length" (Array.length input) (Array.length sorted);
  Array.iteri
    (fun i k -> if i > 0 then Alcotest.(check bool) "nondecreasing" true (sorted.(i - 1) <= k))
    sorted;
  let resorted = Array.copy input in
  Array.sort compare resorted;
  Alcotest.(check bool) "permutation of input" true (resorted = sorted)

(* the radix permutation phase (many-writer pages) must be correct
   under all three inter-SSMP protocols *)
let test_radix_all_protocols () =
  List.iter
    (fun proto ->
      let cfg =
        Mgs.Machine.config ~nprocs:8 ~cluster:2 ~lan_latency:500 ~protocol:proto
          ~shadow:true ()
      in
      let m = Mgs.Machine.create cfg in
      let w = Mgs_apps.Radix.workload Mgs_apps.Radix.tiny in
      let body, check = w.Mgs_harness.Sweep.prepare m in
      ignore (Mgs.Machine.run m body);
      check m;
      Mgs.Machine.assert_quiescent m;
      Alcotest.(check int) "no shadow divergence" 0 (Mgs.Machine.shadow_mismatches m))
    [ Mgs.State.Protocol_mgs; Mgs.State.Protocol_hlrc; Mgs.State.Protocol_ivy ]

(* the protocol ordering on scattered-write workloads (lazy RC < eager
   RC < single-writer SC) is a headline finding of EXPERIMENTS.md; guard
   it against regression *)
let test_radix_protocol_ordering () =
  let runtime proto =
    let cfg =
      Mgs.Machine.config ~nprocs:8 ~cluster:2 ~lan_latency:1000 ~protocol:proto ()
    in
    let m = Mgs.Machine.create cfg in
    let w =
      Mgs_apps.Radix.workload
        { Mgs_apps.Radix.default with Mgs_apps.Radix.nkeys = 1024 }
    in
    let body, check = w.Mgs_harness.Sweep.prepare m in
    let r = Mgs.Machine.run m body in
    check m;
    r.Mgs.Report.runtime
  in
  let mgs = runtime Mgs.State.Protocol_mgs
  and hlrc = runtime Mgs.State.Protocol_hlrc
  and ivy = runtime Mgs.State.Protocol_ivy in
  Alcotest.(check bool)
    (Printf.sprintf "hlrc (%d) < mgs (%d)" hlrc mgs)
    true (hlrc < mgs);
  Alcotest.(check bool)
    (Printf.sprintf "mgs (%d) < ivy (%d)" mgs ivy)
    true (mgs < ivy)

(* allocator bookkeeping *)
let test_allocator_accounting () =
  let h = Mgs_mem.Allocator.create small ~nprocs:2 in
  ignore (Mgs_mem.Allocator.alloc h ~words:40 ~home:Mgs_mem.Allocator.Interleaved);
  Alcotest.(check int) "pages" 2 (Mgs_mem.Allocator.pages_allocated h);
  Alcotest.(check int) "words" 64 (Mgs_mem.Allocator.words_allocated h);
  Alcotest.(check int) "nprocs" 2 (Mgs_mem.Allocator.nprocs h);
  Alcotest.(check int) "geom passthrough" 32 (Mgs_mem.Allocator.geom h).Geom.page_words

(* deterministic protocol: two identical machines produce identical
   event traces, not just runtimes *)
let test_trace_deterministic () =
  let run () =
    let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:500 () in
    let m = Mgs.Machine.create cfg in
    let a = Mgs.Machine.alloc m ~words:8 ~home:(Mgs_mem.Allocator.On_proc 3) in
    let tr = Mgs.Machine.enable_trace m in
    let bar = Mgs_sync.Barrier.create m in
    ignore
      (Mgs.Machine.run m (fun ctx ->
           Mgs.Api.write ctx (a + Mgs.Api.proc ctx) 1.0;
           Mgs_sync.Barrier.wait ctx bar));
    String.concat "\n"
      (List.map (Format.asprintf "%a" Mgs_obs.Event.pp) (Mgs_obs.Trace.events tr))
  in
  let first = run () in
  Alcotest.(check bool) "messages traced" true (String.length first > 0);
  Alcotest.(check string) "identical traces" first (run ())

let () =
  Alcotest.run "more"
    [
      ( "mem",
        [
          Alcotest.test_case "allocator accounting" `Quick test_allocator_accounting;
          QCheck_alcotest.to_alcotest prop_diff_sorted;
        ] );
      ("costs", [ Alcotest.test_case "all positive" `Quick test_costs_positive ]);
      ( "radix",
        [
          Alcotest.test_case "params and reference" `Quick test_radix_params;
          Alcotest.test_case "all protocols" `Quick test_radix_all_protocols;
          Alcotest.test_case "protocol ordering" `Slow test_radix_protocol_ordering;
        ] );
      ( "protocol surfaces",
        [
          Alcotest.test_case "duq_pending" `Quick test_duq_pending;
          Alcotest.test_case "peek through retention" `Quick test_peek_retained;
          Alcotest.test_case "hlrc flush helper" `Quick test_hlrc_flush_helper;
          Alcotest.test_case "protocol names" `Quick test_protocol_names;
          Alcotest.test_case "deterministic traces" `Quick test_trace_deterministic;
        ] );
    ]
