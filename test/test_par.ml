(* The engine's determinism contract: for any job count, a run is
   byte-identical to the single-domain run on every report field that
   describes the simulated machine (wall-clock and the engine-sensitive
   peak-queue figure are explicitly excluded).

   Three layers of evidence:
   - full machines: every protocol x app x faults cell with the
     invariant checker on, par=1 vs par=2 vs par=4;
   - observability: the span/trace dump of an instrumented run matches
     (the trace is per-shard-celled and merged at export, so par >= 2
     really runs multi-domain; test_obs_par covers the full export
     matrix);
   - raw engine: randomized micro-DAGs over a bare simulator, with
     delays chosen to pile events onto lookahead-window boundaries,
     compared per shard against the reference model (Refsim) at every
     job count. *)

module Sim = Mgs_engine.Sim

let apps =
  [
    ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
    ("water", Mgs_apps.Water.workload Mgs_apps.Water.tiny);
    ("tsp", Mgs_apps.Tsp.workload Mgs_apps.Tsp.tiny);
  ]

let protocols = [ "mgs"; "hlrc"; "ivy" ]

(* The full protocol x app x faults matrix at P=8, C=2 (4 shards), with
   the invariant checker on: it keeps every domain, so par >= 2 really
   runs multi-domain.  App verifiers and assert_quiescent run on
   completed runs. *)
let test_machine_equivalence () =
  List.iter
    (fun protocol ->
      List.iter
        (fun (aname, w) ->
          List.iter
            (fun (fname, faults) ->
              let run par =
                Mgs.Report.ident
                  (Mgs_harness.Sweep.run_point ~check:true
                     (Mgs.Machine.config
                        ~protocol:(Mgs.Protocol.proto_of_name protocol)
                        ~par_jobs:par ?faults ~nprocs:8 ~cluster:2 ())
                     w)
                    .Mgs_harness.Sweep.report
              in
              let label p =
                Printf.sprintf "%s/%s/%s: par=%d matches par=1" protocol aname fname p
              in
              let oracle = run 1 in
              List.iter
                (fun par -> Alcotest.(check string) (label par) oracle (run par))
                [ 2; 4 ])
            [
              ("clean", None);
              ("faults", Some (Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.25));
            ])
        apps)
    protocols

(* Frame ownership after a run: every cell of the matrix at par 1 and
   2, and adaptive runs, leave no array with two holders and no client
   frame that is a master.  The walk must see client frames. *)
let test_frames_unaliased () =
  let walk label m =
    Alcotest.(check bool) (label ^ ": client frames walked") true (Frames.check_unaliased m > 0)
  in
  List.iter
    (fun protocol ->
      List.iter
        (fun (aname, w) ->
          List.iter
            (fun (fname, faults) ->
              List.iter
                (fun par ->
                  walk
                    (Printf.sprintf "%s/%s/%s par=%d" protocol aname fname par)
                    (Frames.run ?faults ~protocol ~par ~nprocs:8 ~cluster:2 w))
                [ 1; 2 ])
            [
              ("clean", None);
              ("faults", Some (Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.25));
            ])
        apps)
    protocols;
  List.iter
    (fun protocol ->
      walk (protocol ^ " adapt")
        (Frames.run ~adapt:true ~protocol ~par:2 ~nprocs:8 ~cluster:2
           (Mgs_apps.Water.workload Mgs_apps.Water.tiny)))
    [ "mgs"; "hlrc" ]

(* The walk itself fails on a shared frame and on a frame that is a
   master. *)
let test_frames_walk_catches_aliases () =
  let open Mgs.State in
  let m = Frames.run ~protocol:"mgs" ~par:1 ~nprocs:8 ~cluster:2 (List.assoc "jacobi" apps) in
  let copies =
    Array.to_list m.clients
    |> List.concat_map (fun cl ->
           Mgs_util.Inttbl.fold
             (fun _ ce acc -> if Option.is_some ce.cdata then ce :: acc else acc)
             cl.cl_pages [])
  in
  let fails () = match Frames.check_unaliased m with _ -> false | exception Failure _ -> true in
  match copies with
  | a :: b :: _ ->
    let saved = b.cdata_free in
    b.cdata_free <- a.cdata;
    Alcotest.(check bool) "a shared frame fails the walk" true (fails ());
    b.cdata_free <- Some (get_sentry m b.c_vpn).s_master;
    Alcotest.(check bool) "a master held as a frame fails the walk" true (fails ());
    b.cdata_free <- saved;
    Alcotest.(check bool) "restored, the walk passes" false (fails ())
  | _ -> Alcotest.fail "expected two client copies"

(* A second shape: more SSMPs than the default test shape, uneven
   occupancy (P=16, C=4 -> 4 shards), full job ladder. *)
let test_job_ladder () =
  let w = Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny in
  let run par =
    Mgs.Report.ident
      (Mgs_harness.Sweep.run_point ~check:false
         (Mgs.Machine.config ~par_jobs:par ~nprocs:16 ~cluster:4 ())
         w)
        .Mgs_harness.Sweep.report
  in
  let oracle = run 1 in
  List.iter
    (fun par ->
      Alcotest.(check string)
        (Printf.sprintf "P=16 C=4 par=%d" par)
        oracle (run par))
    [ 2; 3; 4; 8 ]

(* --- observability parity -------------------------------------------- *)

(* The trace keeps one cell per shard and merges at export, so the
   engine stays on par_jobs domains; the merged event dump must be
   byte-identical to the single-domain run's. *)
let trace_dump par =
  let w = Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny in
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  let tr = Mgs.Machine.enable_trace m in
  let body, check = w.Mgs_harness.Sweep.prepare m in
  let report = Mgs.Machine.run m body in
  Mgs.Machine.assert_quiescent m;
  check m;
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Mgs_obs.Event.t) ->
      Buffer.add_string buf (Format.asprintf "%a\n" Mgs_obs.Event.pp e))
    (Mgs_obs.Trace.events tr);
  (Mgs.Report.ident report, Buffer.contents buf)

let test_trace_parity () =
  let i1, d1 = trace_dump 1 in
  List.iter
    (fun par ->
      let i, d = trace_dump par in
      Alcotest.(check string) (Printf.sprintf "report (par=%d)" par) i1 i;
      Alcotest.(check string) (Printf.sprintf "event dump (par=%d)" par) d1 d)
    [ 2; 4 ]

(* --- raw-engine micro-DAGs ------------------------------------------- *)

(* A random forest of events, run on the reference model and on a bare
   simulator.  Delays are drawn from the lookahead-window boundary
   neighborhood so same-time ties and window-edge merges happen
   constantly; cross-shard hops pay at least the lookahead, as the LAN
   does. *)

type node = { hop : int; (* 0 = stay; k > 0 = (shard + k) mod n *) pad : int; kids : node list }

let la = 100

let gen_node : node QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
      let* hop = frequency [ (3, pure 0); (2, int_range 1 3) ] in
      let* pad = oneofl [ 0; 1; la - 1; la; la + 1; (2 * la) - 1; 2 * la ] in
      let* kids = if n = 0 then pure [] else list_size (int_bound 3) (self (n - 1)) in
      pure { hop; pad; kids })

let gen_plan : (int * int * node) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (let* shard = int_bound 3 in
     let* t = oneofl [ 0; 1; la - 1; la; (2 * la) + 1; 5 * la ] in
     let* n = gen_node in
     pure (shard, t, n))

(* Execute a plan on the reference model or on the engine at [jobs],
   with cross-shard hops paying [lookahead] (default [la]); returns
   per-shard execution logs, the whole execution sequence (one log
   shared by every shard, kept only on one domain), events executed,
   and clamps. *)
let run_plan ?(lookahead = la) ~engine plan =
  let nshards = 4 in
  let sim = Sim.create () and r = Refsim.create ~shards:nshards in
  let now, at_shard =
    match engine with
    | `Ref -> ((fun () -> Refsim.now r), Refsim.at_shard r)
    | `Jobs jobs ->
      Sim.make_sharded sim ~nshards ~lookahead;
      Sim.set_jobs sim jobs;
      ((fun () -> Sim.now sim), Sim.at_shard sim)
  in
  let logs = Array.make nshards [] in
  let whole = ref [] in
  let one_domain = match engine with `Ref | `Jobs 1 -> true | `Jobs _ -> false in
  (* each shard appends only to its own log cell *)
  let rec exec id ~shard node () =
    logs.(shard) <- (id, now ()) :: logs.(shard);
    if one_domain then whole := id :: !whole;
    List.iteri
      (fun i kid ->
        let dst = (shard + kid.hop) mod nshards in
        let d = if kid.hop = 0 then kid.pad else lookahead + kid.pad in
        at_shard ~shard:dst (now () + d) (exec ((id * 8) + i + 1) ~shard:dst kid))
      node.kids
  in
  List.iteri (fun i (shard, t, n) -> at_shard ~shard t (exec (i * 1000) ~shard n)) plan;
  let counts =
    match engine with
    | `Ref ->
      Refsim.run r;
      (Refsim.executed r, Refsim.clamped r)
    | `Jobs _ ->
      ignore (Sim.run sim ());
      let st = Sim.stats sim in
      (st.Sim.s_executed, st.Sim.s_clamped)
  in
  (Array.map List.rev logs, List.rev !whole, counts)

(* Per-shard logs at every job count, and at one job the whole
   sequence: a cross-shard swap of two events tied on (fire, sched)
   moves no clock and shows in no per-shard log, and that tie is where
   the key's scheduling shard decides. *)
let prop_dag_equivalence =
  QCheck2.Test.make ~name:"micro-DAG: per-shard schedules identical for any job count"
    ~count:120 gen_plan (fun plan ->
      let logs, whole, counts = run_plan ~engine:`Ref plan in
      List.for_all
        (fun jobs ->
          let l, w, c = run_plan ~engine:(`Jobs jobs) plan in
          l = logs && c = counts && (jobs > 1 || w = whole))
        [ 1; 2; 4 ])

(* At lookahead 0 a hop may cost nothing, and an event it creates can
   sort before its creator; the one heap must still run the reference
   order. *)
let prop_dag_zero_lookahead =
  QCheck2.Test.make ~name:"micro-DAG at lookahead 0: one heap runs the reference order"
    ~count:120 gen_plan (fun plan ->
      run_plan ~lookahead:0 ~engine:`Ref plan = run_plan ~lookahead:0 ~engine:(`Jobs 1) plan)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_dag_equivalence; prop_dag_zero_lookahead ]

let () =
  Alcotest.run "par"
    [
      ( "equivalence",
        [
          Alcotest.test_case "protocol x app x faults matrix" `Quick
            test_machine_equivalence;
          Alcotest.test_case "job ladder at P=16 C=4" `Quick test_job_ladder;
          Alcotest.test_case "frames are never aliased" `Quick test_frames_unaliased;
          Alcotest.test_case "the frame walk catches aliases" `Quick
            test_frames_walk_catches_aliases;
          Alcotest.test_case "trace parity" `Quick test_trace_parity;
        ] );
      ("micro-dag", qsuite);
    ]
