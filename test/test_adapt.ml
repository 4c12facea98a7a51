(* Tests for the adaptive per-page coherence layer: classifier ground
   truth, switch hysteresis and the one-step regime lattice, event-
   driven demotion, home-migration gating, machine-level determinism of
   adaptive runs across engine job counts (invariant checker on),
   byte-identity of the default (adapt-off) configuration, engagement
   on serving traffic, and the ivy guard, also on a record update. *)

module Adapt = Mgs_cache.Adapt
module Bitset = Mgs_util.Bitset
module Sweep = Mgs_harness.Sweep

let pattern = Alcotest.testable (Fmt.of_to_string Adapt.pattern_name) ( = )

let switch =
  Alcotest.(
    option
      (pair
         (testable (Fmt.of_to_string Adapt.regime_name) ( = ))
         (testable (Fmt.of_to_string Adapt.regime_name) ( = ))))

(* ------------------------------------------------------------------ *)
(* Classifier ground truth.                                            *)
(* ------------------------------------------------------------------ *)

let cls ?(readers = 0) ?(writers = 0) ?(wreq = 0) ?(upg = 0) ?(clean = 0)
    ?(regime = Adapt.Rmw) () =
  Adapt.classify ~readers ~writers ~wreq ~upg ~clean ~regime

let test_classify () =
  Alcotest.check pattern "no traffic" Adapt.Idle (cls ());
  Alcotest.check pattern "readers only" Adapt.Read_mostly (cls ~readers:3 ());
  Alcotest.check pattern "one writer, no readers" Adapt.Single_writer
    (cls ~writers:1 ~wreq:4 ());
  Alcotest.check pattern "one writer plus readers" Adapt.Producer_consumer
    (cls ~readers:2 ~writers:1 ~wreq:2 ());
  Alcotest.check pattern "upgrade storm is migratory" Adapt.Migratory
    (cls ~readers:2 ~writers:2 ~wreq:4 ~upg:3 ());
  Alcotest.check pattern "two upgrades are not yet evidence" Adapt.Multi_writer
    (cls ~readers:2 ~writers:2 ~wreq:4 ~upg:2 ());
  Alcotest.check pattern "read sharing beyond the writers: not migratory"
    Adapt.Multi_writer
    (cls ~readers:5 ~writers:2 ~wreq:4 ~upg:3 ());
  (* Under Rinv the eager write grants themselves suppress upgrades, so
     the evidence inverts: copies recalled dirty (low clean rate)
     confirm the migratory call, mostly-clean recalls retract it. *)
  Alcotest.check pattern "Rinv, dirty recalls: still migratory" Adapt.Migratory
    (cls ~writers:2 ~wreq:8 ~clean:2 ~regime:Adapt.Rinv ());
  Alcotest.check pattern "Rinv, clean recalls: demote to multi-writer"
    Adapt.Multi_writer
    (cls ~writers:2 ~wreq:4 ~clean:3 ~regime:Adapt.Rinv ())

let test_legal_edges () =
  let open Adapt in
  List.iter
    (fun (a, b, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s" (regime_name a) (regime_name b))
        want (legal_edge a b))
    [
      (Rmw, Rsw, true);
      (Rmw, Rinv, true);
      (Rsw, Rmw, true);
      (Rinv, Rmw, true);
      (Rsw, Rinv, false);
      (Rinv, Rsw, false);
      (Rmw, Rmw, false);
      (Rsw, Rsw, false);
      (Rinv, Rinv, false);
    ]

(* ------------------------------------------------------------------ *)
(* Switch policy: hysteresis and the one-step lattice.                 *)
(* ------------------------------------------------------------------ *)

(* Feed one synthetic decision window: populate the counters [decide]
   consumes, then run the decision. *)
let window ?(readers = []) ?(writers = []) ?(wreq = 0) ?(upg = 0) ?(clean = 0) p =
  List.iter (Bitset.add p.Adapt.w_readers) readers;
  List.iter (Bitset.add p.Adapt.w_writers) writers;
  p.Adapt.w_rreq <- List.length readers;
  p.Adapt.w_wreq <- (if wreq > 0 then wreq else List.length writers);
  p.Adapt.w_upg <- upg;
  p.Adapt.w_clean <- clean;
  Adapt.decide p

let sw p = window ~writers:[ 1 ] p
let mw p = window ~writers:[ 1; 2 ] ~upg:1 p
let mig p = window ~readers:[ 1; 2 ] ~writers:[ 1; 2 ] ~wreq:4 ~upg:3 p
let pc p = window ~readers:[ 2; 3 ] ~writers:[ 1 ] p

let test_hysteresis () =
  let p = Adapt.new_page ~nssmps:4 in
  Alcotest.check switch "first single-writer window: no switch" None (sw p);
  Alcotest.check switch "second window completes the streak"
    (Some (Adapt.Rmw, Adapt.Rsw))
    (sw p);
  Alcotest.check switch "steady state is quiet" None (sw p);
  (* demotion back to the default needs the same streak *)
  Alcotest.check switch "one multi-writer window: no demotion" None (mw p);
  Alcotest.check switch "second demotes" (Some (Adapt.Rsw, Adapt.Rmw)) (mw p)

(* Producer-consumer pages stay in the default: a twinless copy's
   recall ships the whole page, which every consumer would pay for.
   They demote an Rsw page that gains readers and never promote one. *)
let test_pc_stays_default () =
  let p = Adapt.new_page ~nssmps:4 in
  for _ = 1 to 4 do
    Alcotest.check switch "no promotion on producer-consumer" None (pc p)
  done;
  Alcotest.(check bool) "dominant writer still tracked" true
    (p.Adapt.dom = 1 && p.Adapt.dom_streak = 4);
  Alcotest.(check bool) "so migration is the PC payoff" true (Adapt.wants_migration p);
  ignore (sw p);
  ignore (sw p);
  Alcotest.(check bool) "page parked in Rsw" true (p.Adapt.regime = Adapt.Rsw);
  Alcotest.check switch "a reader appears: streak building" None (pc p);
  Alcotest.check switch "consumers demote the twinless copy"
    (Some (Adapt.Rsw, Adapt.Rmw))
    (pc p)

let test_lattice_one_step () =
  let p = Adapt.new_page ~nssmps:4 in
  ignore (sw p);
  ignore (sw p);
  Alcotest.check switch "page parked in Rsw" None (sw p);
  (* a migratory phase cannot jump Rsw -> Rinv: the streak first routes
     through the safe default, then specialises *)
  Alcotest.check switch "streak building" None (mig p);
  Alcotest.check switch "first step lands on Rmw"
    (Some (Adapt.Rsw, Adapt.Rmw))
    (mig p);
  Alcotest.check switch "second step specialises"
    (Some (Adapt.Rmw, Adapt.Rinv))
    (mig p)

let test_alternation_never_switches () =
  let p = Adapt.new_page ~nssmps:4 in
  for i = 1 to 32 do
    let r = if i mod 2 = 0 then sw p else mw p in
    Alcotest.check switch "strict alternation never reaches the streak" None r
  done;
  Alcotest.(check bool) "page stayed in the default" true (p.Adapt.regime = Adapt.Rmw)

(* Any window sequence: every switch walks a legal lattice edge from
   the regime the page was actually in, and switches closer together
   than [switch_streak] windows never return to the regime just left —
   they can only be the second leg of a lattice traversal (X -> Rmw
   -> Y with Y <> X, one sustained pattern routed through the default).
   That is the hysteresis contract: ping-pong is impossible, crossing
   the lattice is not. *)
let prop_switch_invariants =
  QCheck.Test.make ~count:200 ~name:"policy: legal edges, chained, no ping-pong"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 0 3))
    (fun kinds ->
      let p = Adapt.new_page ~nssmps:4 in
      let cur = ref Adapt.Rmw in
      let last = ref None (* (window, old regime) of the previous switch *) in
      List.iteri
        (fun i k ->
          let r =
            match k with
            | 0 -> sw p
            | 1 -> mw p
            | 2 -> mig p
            | _ -> window ~readers:[ 0; 3 ] p
          in
          match r with
          | None -> ()
          | Some (old, nxt) ->
            if old <> !cur then
              QCheck.Test.fail_reportf "switch leaves %s but page was in %s"
                (Adapt.regime_name old) (Adapt.regime_name nxt);
            if not (Adapt.legal_edge old nxt) then
              QCheck.Test.fail_reportf "illegal edge %s -> %s" (Adapt.regime_name old)
                (Adapt.regime_name nxt);
            (match !last with
            | Some (j, prev_old) when i - j < Adapt.switch_streak && nxt = prev_old ->
              QCheck.Test.fail_reportf "ping-pong: back to %s %d windows after leaving"
                (Adapt.regime_name nxt) (i - j)
            | _ -> ());
            last := Some (i, old);
            cur := nxt)
        kinds;
      p.Adapt.regime = !cur)

let test_demote () =
  let p = Adapt.new_page ~nssmps:4 in
  Alcotest.check switch "demote is a no-op outside Rsw" None (Adapt.demote p);
  ignore (sw p);
  ignore (sw p);
  Alcotest.check switch "direct evidence demotes immediately"
    (Some (Adapt.Rsw, Adapt.Rmw))
    (Adapt.demote p);
  (* the seeded multi-writer streak blocks an instant re-promotion *)
  Alcotest.check switch "next single-writer window cannot re-promote" None (sw p);
  Alcotest.check switch "but a fresh streak can"
    (Some (Adapt.Rmw, Adapt.Rsw))
    (sw p)

let test_migration_gate () =
  let p = Adapt.new_page ~nssmps:4 in
  ignore (sw p);
  ignore (sw p);
  Alcotest.(check bool) "streak of 2 is not enough" false (Adapt.wants_migration p);
  ignore (sw p);
  Alcotest.(check int) "dominant writer tracked" 1 p.Adapt.dom;
  Alcotest.(check int) "dominance streak" 3 p.Adapt.dom_streak;
  Alcotest.(check bool) "streak of 3 qualifies" true (Adapt.wants_migration p);
  (* a different writer restarts the streak *)
  ignore (window ~writers:[ 2 ] p);
  Alcotest.(check int) "new dominant writer" 2 p.Adapt.dom;
  Alcotest.(check int) "streak restarted" 1 p.Adapt.dom_streak;
  Alcotest.(check bool) "no migration on a fresh streak" false (Adapt.wants_migration p);
  (* multi-writer windows clear the candidate entirely *)
  ignore (mw p);
  Alcotest.(check int) "contention clears the candidate" (-1) p.Adapt.dom

let test_window_reset () =
  let p = Adapt.new_page ~nssmps:4 in
  ignore (sw p);
  ignore (sw p);
  Bitset.add p.Adapt.w_writers 1;
  p.Adapt.w_wreq <- 5;
  Adapt.reset_window p;
  Alcotest.(check int) "window counters cleared" 0
    (Bitset.cardinal p.Adapt.w_writers + p.Adapt.w_wreq + p.Adapt.w_rreq
   + p.Adapt.w_upg + p.Adapt.w_clean);
  Alcotest.(check int) "reset_window keeps the dominance streak" 2 p.Adapt.dom_streak

(* ------------------------------------------------------------------ *)
(* Machine level.                                                      *)
(* ------------------------------------------------------------------ *)

let adapt_total (p : Mgs.Pstats.t) =
  p.Mgs.Pstats.adapt_reclass + p.Mgs.Pstats.adapt_migs + p.Mgs.Pstats.adapt_fwds
  + p.Mgs.Pstats.adapt_yields + p.Mgs.Pstats.adapt_res_mw + p.Mgs.Pstats.adapt_res_sw
  + p.Mgs.Pstats.adapt_res_inv

let test_adapt_off_identity () =
  let w = Mgs_apps.Water.workload Mgs_apps.Water.tiny in
  let plain = Sweep.run_point (Mgs.Machine.config ~nprocs:8 ~cluster:2 ()) w in
  let off = Sweep.run_point (Mgs.Machine.config ~adapt:false ~nprocs:8 ~cluster:2 ()) w in
  Alcotest.(check string) "adapt:false is the plain machine"
    (Mgs.Report.ident plain.Sweep.report) (Mgs.Report.ident off.Sweep.report);
  Alcotest.(check int) "no adaptive counter moves when off" 0
    (adapt_total plain.Sweep.report.Mgs.Report.pstats)

let test_adapt_par_identity () =
  List.iter
    (fun protocol ->
      List.iter
        (fun (aname, w) ->
          let run par =
            let cfg =
              Mgs.Machine.config ~adapt:true ~protocol ~par_jobs:par ~nprocs:8 ~cluster:2 ()
            in
            (Sweep.run_point ~check:true cfg w).Sweep.report
          in
          let oracle = run 1 in
          let protocol = Mgs.Protocol.name_of protocol in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: the adaptive layer engaged" protocol aname)
            true
            (adapt_total oracle.Mgs.Report.pstats > 0);
          List.iter
            (fun par ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s: par=%d matches par=1" protocol aname par)
                (Mgs.Report.ident oracle)
                (Mgs.Report.ident (run par)))
            [ 2; 4 ])
        [
          ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
          ("water", Mgs_apps.Water.workload Mgs_apps.Water.tiny);
        ])
    Mgs.State.[ Protocol_mgs; Protocol_hlrc ]

let test_adapt_faulty_identity () =
  let w = Mgs_apps.Water.workload Mgs_apps.Water.tiny in
  let faults = Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.25 in
  let run par =
    Mgs.Report.ident
      (Sweep.run_point ~check:true ~faults
         (Mgs.Machine.config ~adapt:true ~par_jobs:par ~nprocs:8 ~cluster:2 ())
         w)
        .Sweep.report
  in
  Alcotest.(check string) "adaptive run under faults: par=2 matches par=1" (run 1)
    (run 2)

(* Serving traffic engages both adaptive mechanisms.  In the
   thundering-herd cell, synchronized put waves over one striped page
   must drive it to the invalidate-on-read regime.  In the contended
   skewed cell, at least one home must migrate and requests must follow
   it. *)
let test_adapt_serving () =
  let module Kv = Mgs_serve.Kv in
  let pstats p =
    (Sweep.run_point ~check:true
       (Mgs.Machine.config ~adapt:true ~nprocs:8 ~cluster:2 ())
       (Kv.workload p))
      .Sweep.report.Mgs.Report.pstats
  in
  let herd =
    pstats
      {
        Kv.default with
        Kv.nkeys = 8;
        nshards = 1;
        stripes = 8;
        ops = 200;
        get_pct = 0;
        put_pct = 100;
        theta = 0.;
        churn = 0;
        period = 200_000;
        burst = 200_000;
        think = 10_000;
      }
  in
  Alcotest.(check bool) "herd: pages reclassified" true (herd.Mgs.Pstats.adapt_reclass > 0);
  Alcotest.(check bool) "herd: invalidate-on-read reached" true
    (herd.Mgs.Pstats.adapt_res_inv > 0);
  let contended =
    pstats
      {
        Kv.default with
        Kv.nkeys = 16;
        nshards = 1;
        stripes = 16;
        ops = 300;
        get_pct = 5;
        put_pct = 95;
        theta = 1.1;
        churn = 0;
        period = 2_000;
      }
  in
  Alcotest.(check bool) "contended: a home migrated" true
    (contended.Mgs.Pstats.adapt_migs > 0);
  Alcotest.(check bool) "contended: requests forwarded" true
    (contended.Mgs.Pstats.adapt_fwds > 0)

let test_ivy_rejected () =
  Alcotest.(check bool) "ivy + adapt is a configuration error" true
    (try
       ignore
         (Mgs.Machine.config ~protocol:Mgs.State.Protocol_ivy ~adapt:true ~nprocs:8
            ~cluster:2 ());
       false
     with Invalid_argument msg ->
       (* the message must say what to do instead *)
       let affix = "requires mgs or hlrc" in
       let n = String.length msg and k = String.length affix in
       let rec scan i = i + k <= n && (String.sub msg i k = affix || scan (i + 1)) in
       scan 0)

(* a record update of a checked config reaches the machine's check *)
let test_ivy_rejected_on_update () =
  let cfg =
    {
      (Mgs.Machine.config ~adapt:true ~nprocs:8 ~cluster:2 ()) with
      protocol = Mgs.State.Protocol_ivy;
    }
  in
  match Sweep.run_point cfg (Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny) with
  | _ -> Alcotest.fail "an adaptive Ivy machine ran"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "the config check refused it" true
      (String.ends_with ~suffix:"requires mgs or hlrc" msg)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "adapt"
    [
      ( "classifier",
        [
          Alcotest.test_case "ground truth" `Quick test_classify;
          Alcotest.test_case "lattice edges" `Quick test_legal_edges;
        ] );
      ( "policy",
        [
          Alcotest.test_case "hysteresis" `Quick test_hysteresis;
          Alcotest.test_case "one lattice step per decision" `Quick
            test_lattice_one_step;
          Alcotest.test_case "adversarial alternation" `Quick
            test_alternation_never_switches;
          Alcotest.test_case "producer-consumer stays default" `Quick
            test_pc_stays_default;
          Alcotest.test_case "event-driven demotion" `Quick test_demote;
          Alcotest.test_case "migration gating" `Quick test_migration_gate;
          Alcotest.test_case "window reset" `Quick test_window_reset;
        ] );
      ( "machine",
        [
          Alcotest.test_case "adapt off is byte-identical" `Quick
            test_adapt_off_identity;
          Alcotest.test_case "adaptive runs match across job counts" `Quick
            test_adapt_par_identity;
          Alcotest.test_case "and under faults" `Quick test_adapt_faulty_identity;
          Alcotest.test_case "engages on serving traffic" `Quick test_adapt_serving;
          Alcotest.test_case "ivy rejected" `Quick test_ivy_rejected;
          Alcotest.test_case "ivy rejected on record update" `Quick
            test_ivy_rejected_on_update;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_switch_invariants ] );
    ]
