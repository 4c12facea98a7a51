(* Tests for the request-serving tier (lib/serve) and the workload
   registry it rides on: the zipfian sampler's distribution and
   determinism, schedule purity, exact-percentile oracles for both
   Tail and the bounded-memory Hist, an end-to-end verified KV run
   with tail-latency reporting identical across engines, a checked run
   identical across job counts, and the registry's contracts (lookup,
   unknown-name errors, every workload's accepted knobs, equivalence to
   direct construction). *)

module Sweep = Mgs_harness.Sweep
module Workload = Mgs_harness.Workload
module Kv = Mgs_serve.Kv
module Zipf = Mgs_serve.Zipf
module Tail = Mgs_serve.Tail
module Rng = Mgs_util.Rng

let () = Mgs_apps.Workloads.ensure ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- zipfian sampler ------------------------------------------------ *)

let test_zipf_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.dist: n must be positive")
    (fun () -> ignore (Zipf.dist ~n:0 ~theta:1.0));
  Alcotest.check_raises "theta < 0"
    (Invalid_argument "Zipf.dist: theta must be nonnegative") (fun () ->
      ignore (Zipf.dist ~n:4 ~theta:(-0.5)))

let test_zipf_mass () =
  let d = Zipf.dist ~n:100 ~theta:0.99 in
  Alcotest.(check int) "n" 100 (Zipf.n d);
  let total = ref 0. in
  for i = 0 to 99 do
    total := !total +. Zipf.mass d i
  done;
  Alcotest.(check (float 1e-9)) "masses sum to 1" 1.0 !total;
  for i = 0 to 98 do
    if Zipf.mass d i < Zipf.mass d (i + 1) then
      Alcotest.failf "mass not non-increasing at rank %d" i
  done;
  (* theta = 0 degenerates to uniform *)
  let u = Zipf.dist ~n:10 ~theta:0. in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform mass" 0.1 (Zipf.mass u i)
  done

let test_zipf_determinism () =
  let draws seed =
    let d = Zipf.dist ~n:64 ~theta:0.8 in
    let g = Rng.create ~seed in
    List.init 200 (fun _ -> Zipf.draw d g)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draws 42) (draws 42);
  if draws 42 = draws 43 then Alcotest.fail "distinct seeds gave identical streams"

(* Rank-frequency slope: on a log-log plot the empirical frequency of
   rank r falls as r^-theta, so a least-squares fit of log freq against
   log rank over the well-sampled head must recover -theta. *)
let zipf_slope ~n ~theta ~samples =
  let d = Zipf.dist ~n ~theta in
  let g = Rng.create ~seed:9 in
  let freq = Array.make n 0 in
  for _ = 1 to samples do
    let r = Zipf.draw d g in
    freq.(r) <- freq.(r) + 1
  done;
  let pts =
    List.filter_map
      (fun r ->
        if freq.(r) >= 30 then
          Some (log (float_of_int (r + 1)), log (float_of_int freq.(r)))
        else None)
      (List.init (n / 2) (fun i -> i))
  in
  let m = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
  ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx))

let test_zipf_slope () =
  List.iter
    (fun theta ->
      let slope = zipf_slope ~n:200 ~theta ~samples:200_000 in
      if Float.abs (slope +. theta) > 0.1 then
        Alcotest.failf "theta=%.2f: rank-frequency slope %.3f (expected %.3f)" theta
          slope (-.theta))
    [ 0.5; 0.9; 1.2 ]

let qcheck_zipf_range =
  QCheck.Test.make ~count:50 ~name:"zipf draws stay in range"
    QCheck.(pair (int_range 1 64) (float_range 0. 2.))
    (fun (n, theta) ->
      let d = Zipf.dist ~n ~theta in
      let g = Rng.create ~seed:(n + int_of_float (theta *. 100.)) in
      List.for_all (fun _ -> let r = Zipf.draw d g in r >= 0 && r < n) (List.init 100 Fun.id))

(* --- schedule purity ------------------------------------------------ *)

let test_schedules_pure () =
  let p = { Kv.tiny with Kv.ops = 50 } in
  let s1 = Kv.schedules p ~nprocs:8
  and s2 = Kv.schedules p ~nprocs:8 in
  Alcotest.(check int) "one schedule per client" 8 (Array.length s1);
  Alcotest.(check bool) "byte-identical rebuild" true (s1 = s2);
  Array.iter
    (fun sch ->
      let n = Array.length sch.Kv.arrival in
      Alcotest.(check int) "ops per client" 50 n;
      for i = 1 to n - 1 do
        if sch.Kv.arrival.(i) < sch.Kv.arrival.(i - 1) then
          Alcotest.fail "arrivals not nondecreasing"
      done;
      Array.iter
        (fun k ->
          if k < 1 || k > p.Kv.nkeys then Alcotest.failf "key %d out of range" k)
        sch.Kv.key)
    s1

let test_schedules_mix () =
  let p = { Kv.default with Kv.ops = 2000; get_pct = 70; put_pct = 25 } in
  let s = Kv.schedules p ~nprocs:4 in
  let count op =
    Array.fold_left
      (fun acc sch ->
        Array.fold_left (fun a o -> if o = op then a + 1 else a) acc sch.Kv.opcode)
      0 s
  in
  let total = 4 * 2000 in
  let pct op = 100. *. float_of_int (count op) /. float_of_int total in
  if Float.abs (pct Kv.Get -. 70.) > 3. then Alcotest.failf "get mix %.1f%%" (pct Kv.Get);
  if Float.abs (pct Kv.Put -. 25.) > 3. then Alcotest.failf "put mix %.1f%%" (pct Kv.Put);
  if Float.abs (pct Kv.Scan -. 5.) > 3. then Alcotest.failf "scan mix %.1f%%" (pct Kv.Scan)

(* --- percentile oracles --------------------------------------------- *)

(* The exact nearest-rank percentile: the ceil(q*n)-th smallest. *)
let oracle samples q =
  match List.sort compare samples with
  | [] -> 0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    List.nth sorted (rank - 1)

let test_tail_percentile_edges () =
  Alcotest.(check int) "empty" 0 (Tail.percentile_of_sorted [||] 0.5);
  Alcotest.(check int) "single" 7 (Tail.percentile_of_sorted [| 7 |] 0.999);
  Alcotest.(check int) "p50 of two" 1 (Tail.percentile_of_sorted [| 1; 9 |] 0.5);
  Alcotest.(check int) "p100" 9 (Tail.percentile_of_sorted [| 1; 9 |] 1.0);
  Alcotest.(check int) "q > 1 clamps" 9 (Tail.percentile_of_sorted [| 1; 9 |] 2.0)

let qcheck_tail_oracle =
  QCheck.Test.make ~count:200 ~name:"Tail.percentile_of_sorted = sorted-list oracle"
    QCheck.(pair (list_of_size Gen.(1 -- 40) (int_range 0 10_000)) (float_range 0.01 1.))
    (fun (samples, q) ->
      let sorted = Array.of_list (List.sort compare samples) in
      Tail.percentile_of_sorted sorted q = oracle samples q)

(* Hist buckets are power-of-two ranges, so its percentile is an upper
   bound on the exact one and its bounds must bracket it. *)
let qcheck_hist_brackets_oracle =
  QCheck.Test.make ~count:200 ~name:"Hist.percentile_bounds bracket the exact percentile"
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_range 0 100_000)) (float_range 0.01 1.))
    (fun (samples, q) ->
      let h = Mgs_obs.Hist.create () in
      List.iter (Mgs_obs.Hist.add h) samples;
      let exact = oracle samples q in
      let lo, hi = Mgs_obs.Hist.percentile_bounds h q in
      lo <= exact && exact <= hi && Mgs_obs.Hist.percentile h q = hi)

let test_hist_percentile_edges () =
  let h = Mgs_obs.Hist.create () in
  Alcotest.(check (pair int int)) "empty bounds" (0, 0) (Mgs_obs.Hist.percentile_bounds h 0.5);
  Alcotest.(check int) "empty" 0 (Mgs_obs.Hist.percentile h 0.5);
  Mgs_obs.Hist.add h 37;
  Alcotest.(check int) "single sample is exact" 37 (Mgs_obs.Hist.percentile h 0.999);
  Alcotest.(check (pair int int)) "extrema tighten the bucket" (37, 37)
    (Mgs_obs.Hist.percentile_bounds h 0.5);
  (* all samples in one bucket: extrema pin both ends *)
  let h1 = Mgs_obs.Hist.create () in
  List.iter (Mgs_obs.Hist.add h1) [ 33; 34; 35 ];
  let lo, hi = Mgs_obs.Hist.percentile_bounds h1 0.5 in
  Alcotest.(check (pair int int)) "single bucket" (33, 35) (lo, hi)

(* --- end-to-end KV -------------------------------------------------- *)

(* Phase coverage summed over the merged view, where parents are
   renumbered: the oracle of [Tail.coverage], which folds over the raw
   cells in no order. *)
let view_coverage sp =
  let root = ref 0 and phase = ref 0 in
  Mgs_obs.Span.iter sp (fun { Mgs_obs.Span.label; parent; t0; t1; _ } ->
      if t1 >= 0 then
        if parent = -1 && List.mem label [ "kv.get"; "kv.put"; "kv.scan" ] then
          root := !root + t1 - t0
        else if List.mem label [ "kv.queue"; "kv.lock"; "kv.access" ] then
          phase := !phase + t1 - t0);
  float_of_int !phase /. float_of_int !root

(* One verified run (store checked against the schedules) with the
   trace on: >= 95% of request latency must be attributed to phase
   children, nothing dropped, and the rendered table must be identical
   at every job count. *)
let kv_exports par =
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  let tr = Mgs.Machine.enable_trace m in
  let w = Kv.workload Kv.tiny in
  let body, check = w.Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  Mgs.Machine.assert_quiescent m;
  check m;
  let sp = Mgs_obs.Trace.spans tr in
  (Tail.table sp, Tail.coverage sp, view_coverage sp, Mgs_obs.Span.dropped sp)

let test_kv_run () =
  let table, coverage, in_view, dropped = kv_exports 1 in
  Alcotest.(check int) "no spans dropped" 0 dropped;
  Alcotest.(check (float 0.)) "coverage as over the merged view" in_view coverage;
  if coverage < 0.95 then Alcotest.failf "phase coverage %.3f < 0.95" coverage;
  List.iter
    (fun op ->
      if not (contains table op) then Alcotest.failf "table lacks %s row" op)
    [ "kv.get"; "kv.put"; "kv.scan" ];
  if not (contains table "p999") then Alcotest.fail "table lacks p999 column"

let test_kv_par_identity () =
  let oracle = kv_exports 1 in
  List.iter
    (fun par ->
      if kv_exports par <> oracle then
        Alcotest.failf "kv exports diverge from par=1 at par=%d" par)
    [ 2; 4 ]

(* With the invariant checker on (it keeps every domain, so par 2 and 4
   really run windowed), a verified tiny run repeats byte for byte and
   matches at every job count. *)
let test_kv_checked_identity () =
  let run par =
    Mgs.Report.ident
      (Sweep.run_point ~check:true
         (Mgs.Machine.config ~par_jobs:par ~nprocs:8 ~cluster:2 ())
         (Kv.workload Kv.tiny))
        .Sweep.report
  in
  let oracle = run 1 in
  Alcotest.(check string) "par=1 rerun" oracle (run 1);
  List.iter
    (fun par -> Alcotest.(check string) (Printf.sprintf "par=%d" par) oracle (run par))
    [ 2; 4 ]

(* kv needs only its request spans, so without [enable_trace] its
   store holds nothing else: no trace row, no protocol span.  The tail
   table and the report equal those of the same run recorded in full,
   at one job and windowed. *)
let kv_store ~full par =
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  if full then ignore (Mgs.Machine.enable_trace m);
  let body, check = (Kv.workload Kv.tiny).Sweep.prepare m in
  let report = Mgs.Machine.run m body in
  Mgs.Machine.assert_quiescent m;
  check m;
  match Mgs.Machine.trace m with
  | None -> Alcotest.fail "kv recorded no spans"
  | Some tr -> (tr, Tail.table (Mgs_obs.Trace.spans tr), Mgs.Report.ident report)

let test_kv_request_spans_only () =
  let kv_labels = [ "kv.get"; "kv.put"; "kv.scan"; "kv.queue"; "kv.lock"; "kv.access" ] in
  List.iter
    (fun par ->
      let tr, table, ident = kv_store ~full:false par in
      let sp = Mgs_obs.Trace.spans tr in
      Alcotest.(check int) "no trace row" 0 (Mgs_obs.Trace.emitted tr);
      Alcotest.(check int) "no span dropped" 0 (Mgs_obs.Span.dropped sp);
      Mgs_obs.Span.iter sp (fun { Mgs_obs.Span.label; _ } ->
          if not (List.mem label kv_labels) then Alcotest.failf "recorded a %s span" label);
      let _, full_table, full_ident = kv_store ~full:true par in
      Alcotest.(check string) "tail table as recorded in full" full_table table;
      Alcotest.(check string) "report as recorded in full" full_ident ident)
    [ 1; 2 ]

(* At its default size (P=64, C=16: 64 clients x 200 requests) the
   run verifies, the store keeps every request, and the epilogue the
   CLI prints carries a row per operation class. *)
let test_kv_default_no_drop () =
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~nprocs:64 ~cluster:16 () in
  let m = Mgs.Machine.create cfg in
  let body, check = (Kv.workload Kv.default).Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  Mgs.Machine.assert_quiescent m;
  check m;
  let sp = Mgs_obs.Trace.spans (Option.get (Mgs.Machine.trace m)) in
  Alcotest.(check int) "no span dropped" 0 (Mgs_obs.Span.dropped sp);
  Alcotest.(check int) "every request counted" (64 * Kv.default.Kv.ops)
    (List.fold_left (fun n r -> n + r.Mgs_harness.Figures.lr_count) 0 (Tail.rows sp));
  let epilogue = Kv.epilogue m in
  List.iter
    (fun op -> if not (contains epilogue op) then Alcotest.failf "epilogue lacks %s row" op)
    [ "kv.get"; "kv.put"; "kv.scan" ]

(* --- the workload registry ------------------------------------------ *)

let test_registry_names () =
  let names = Workload.names () in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "registry lacks %S" n)
    [
      "jacobi"; "matmul"; "tsp"; "water"; "barnes"; "water-kernel"; "water-kernel-tiled";
      "lu"; "fft"; "radix"; "kv";
    ];
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_registry_unknown () =
  match Workload.of_name "no-such-app" with
  | _ -> Alcotest.fail "unknown name accepted"
  | exception Invalid_argument msg ->
    List.iter
      (fun n ->
        if not (contains msg n) then Alcotest.failf "error %S does not list %S" msg n)
      [ "jacobi"; "kv"; "water-kernel-tiled" ]

(* Every registered workload's accepted knobs, in the order its error
   lists them. *)
let accepted =
  [
    ("barnes", "size, iters, lock");
    ("fft", "size");
    ("jacobi", "size, iters");
    ( "kv",
      "size, iters, lock, users, theta, get, put, scan-len, churn, period, burst, think, \
       shards, stripes, home, seed" );
    ("lu", "size");
    ("matmul", "size");
    ("radix", "size");
    ("tsp", "size, lock");
    ("water", "size, iters, lock");
    ("water-kernel", "size");
    ("water-kernel-tiled", "size");
  ]

let test_registry_bad_param () =
  let args = { Workload.default_args with Workload.extra = [ ("bogus", "1") ] } in
  List.iter
    (fun name ->
      let knobs =
        match List.assoc_opt name accepted with
        | Some knobs -> knobs
        | None -> Alcotest.failf "no accepted-knob list pinned for workload %S" name
      in
      let refusal f = match f () with _ -> "accepted" | exception Invalid_argument msg -> msg in
      let want =
        Printf.sprintf "workload %s: unknown parameter \"bogus\" (accepted: %s)" name knobs
      in
      Alcotest.(check string)
        (name ^ " instantiate names the bad knob and the accepted ones")
        want
        (refusal (fun () -> ignore (Workload.instantiate ~args name)));
      Alcotest.(check string)
        (name ^ " problem_size refuses it alike")
        want
        (refusal (fun () -> ignore (Workload.problem_size ~args name))))
    (Workload.names ())

let report_ident w =
  Mgs.Report.ident (Sweep.run_point (Mgs.Machine.config ~nprocs:8 ~cluster:2 ()) w).Sweep.report

let test_registry_equals_direct () =
  List.iter
    (fun (name, direct) ->
      Alcotest.(check string)
        (name ^ " registry = direct")
        (report_ident direct)
        (report_ident (Workload.tiny name)))
    [
      ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
      ("water", Mgs_apps.Water.workload Mgs_apps.Water.tiny);
      ("kv", Kv.workload Kv.tiny);
    ]

let test_registry_knobs () =
  (* generic knobs map onto each app's natural parameter *)
  Alcotest.(check string) "size reaches jacobi"
    (Mgs_apps.Jacobi.problem_size { Mgs_apps.Jacobi.default with Mgs_apps.Jacobi.n = 12 })
    (Workload.problem_size
       ~args:{ Workload.default_args with Workload.size = Some 12 }
       "jacobi");
  let ps =
    Workload.problem_size
      ~args:{ Workload.default_args with Workload.size = Some 99 }
      "kv"
  in
  if not (contains ps "99 keys") then Alcotest.failf "kv size knob ignored: %s" ps

let test_parse_kv () =
  Alcotest.(check (pair string string)) "split" ("theta", "1.2") (Workload.parse_kv "theta=1.2");
  Alcotest.(check (pair string string)) "value may contain =" ("a", "b=c")
    (Workload.parse_kv "a=b=c");
  match Workload.parse_kv "nokey" with
  | _ -> Alcotest.fail "accepted param without '='"
  | exception Invalid_argument _ -> ()

let qcheck_cases = List.map QCheck_alcotest.to_alcotest
    [ qcheck_zipf_range; qcheck_tail_oracle; qcheck_hist_brackets_oracle ]

let () =
  Alcotest.run "serve"
    [
      ( "zipf",
        [
          Alcotest.test_case "validation" `Quick test_zipf_validation;
          Alcotest.test_case "mass" `Quick test_zipf_mass;
          Alcotest.test_case "determinism" `Quick test_zipf_determinism;
          Alcotest.test_case "rank-frequency slope" `Slow test_zipf_slope;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "pure function of params" `Quick test_schedules_pure;
          Alcotest.test_case "opcode mix" `Quick test_schedules_mix;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "tail edge cases" `Quick test_tail_percentile_edges;
          Alcotest.test_case "hist edge cases" `Quick test_hist_percentile_edges;
        ]
        @ qcheck_cases );
      ( "kv",
        [
          Alcotest.test_case "verified run + coverage" `Quick test_kv_run;
          Alcotest.test_case "par identity" `Quick test_kv_par_identity;
          Alcotest.test_case "checker run" `Quick test_kv_checked_identity;
          Alcotest.test_case "kv records only its request spans" `Quick
            test_kv_request_spans_only;
          Alcotest.test_case "default-size kv drops no span" `Quick test_kv_default_no_drop;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "unknown name" `Quick test_registry_unknown;
          Alcotest.test_case "unknown param" `Quick test_registry_bad_param;
          Alcotest.test_case "registry = direct" `Quick test_registry_equals_direct;
          Alcotest.test_case "generic knobs" `Quick test_registry_knobs;
          Alcotest.test_case "parse_kv" `Quick test_parse_kv;
        ] );
    ]
