type workload = {
  name : string;
  prepare : Mgs.Machine.t -> (Mgs.Api.ctx -> unit) * (Mgs.Machine.t -> unit);
}

type point = { cluster : int; report : Mgs.Report.t; lock_hit_ratio : float }

let clusters_of nprocs =
  let rec go c = if c > nprocs then [] else c :: go (2 * c) in
  go 1

let run_point ?(page_words = 256) ?(costs = Mgs_machine.Costs.default) ?(lan_latency = 1000)
    ?(protocol = "mgs") ?faults ?(fault_seed = 42) ?(verify = true) ?(check = true)
    ?(par = 1) ?(adapt = false) ~nprocs ~cluster w =
  let cfg =
    Mgs.Machine.config ~page_words ~costs ~lan_latency
      ~protocol:(Mgs.Protocol.proto_of_name protocol) ~par_jobs:par ~adapt ~nprocs ~cluster
      ()
  in
  let m = Mgs.Machine.create cfg in
  let checker = if check then Some (Mgs.Machine.enable_checker m) else None in
  (match faults with
  | Some spec -> Mgs.Machine.set_faults m ~seed:fault_seed spec
  | None -> ());
  let body, wcheck = w.prepare m in
  let report = Mgs.Machine.run m body in
  (* a partitioned run is a legitimate outcome under faults: the caller
     inspects [report.outcome]; only completed runs can be verified *)
  if verify && Mgs.Report.completed report then begin
    Mgs.Machine.assert_quiescent m;
    wcheck m
  end;
  (match checker with
  | Some c ->
    Mgs.Invariant.finish c;
    if Mgs.Invariant.count c > 0 then
      failwith (Format.asprintf "%s C=%d: %a" w.name cluster Mgs.Invariant.pp c)
  | None -> ());
  { cluster; report; lock_hit_ratio = Mgs.Report.lock_hit_ratio report }

let sweep ?page_words ?costs ?lan_latency ?protocol ?verify ?check ?par ?adapt ?clusters
    ?(jobs = 1) ~nprocs w =
  let clusters = Option.value ~default:(clusters_of nprocs) clusters in
  (* Every point is a self-contained machine, so the sweep fans out over
     a domain pool; Dpool.map returns results in cluster order, making
     the output independent of [jobs]. *)
  Mgs_util.Dpool.map ~jobs
    (fun cluster ->
      run_point ?page_words ?costs ?lan_latency ?protocol ?verify ?check ?par ?adapt
        ~nprocs ~cluster w)
    clusters

(* --- chaos sweeps ---------------------------------------------------- *)

type chaos_point = { intensity : float; spec : Mgs_net.Fault.spec; point : point }

(* The chaos contract has two halves, both asserted here rather than
   left to callers: (1) every point terminates — either completed (then
   verified like any sweep point) or as a typed partition, never a
   hang; (2) a fixed seed fully determines the run, shown by executing
   every point twice and comparing the simulated results exactly. *)
let chaos ?(intensities = [ 0.0; 0.25; 0.5; 1.0 ]) ?(spec = Mgs_net.Fault.default_chaos)
    ?protocol ?page_words ?costs ?lan_latency ?(check = false) ~seed ~nprocs ~cluster w =
  List.mapi
    (fun i intensity ->
      let fspec = Mgs_net.Fault.scale spec ~intensity in
      let faults = if Mgs_net.Fault.is_zero fspec then None else Some fspec in
      let fault_seed = seed + (7919 * i) in
      let go () =
        run_point ?page_words ?costs ?lan_latency ?protocol ?faults ~fault_seed ~check
          ~nprocs ~cluster w
      in
      let p1 = go () in
      let p2 = go () in
      let r1 = p1.report and r2 = p2.report in
      if
        r1.Mgs.Report.runtime <> r2.Mgs.Report.runtime
        || r1.Mgs.Report.sim_events <> r2.Mgs.Report.sim_events
        || r1.Mgs.Report.outcome <> r2.Mgs.Report.outcome
        || r1.Mgs.Report.pstats.Mgs.Pstats.net_retries
           <> r2.Mgs.Report.pstats.Mgs.Pstats.net_retries
        || r1.Mgs.Report.pstats.Mgs.Pstats.net_dups <> r2.Mgs.Report.pstats.Mgs.Pstats.net_dups
      then
        failwith
          (Printf.sprintf "%s: chaos point intensity=%g seed=%d is not deterministic" w.name
             intensity fault_seed);
      { intensity; spec = fspec; point = p1 })
    intensities

let pp_chaos_table ppf points =
  Format.fprintf ppf "%-10s %-12s %-10s %-8s %-8s %-8s %s@." "intensity" "runtime" "events"
    "retries" "dups" "timeouts" "outcome";
  List.iter
    (fun cp ->
      let r = cp.point.report in
      Format.fprintf ppf "%-10g %-12d %-10d %-8d %-8d %-8d %a@." cp.intensity
        r.Mgs.Report.runtime r.Mgs.Report.sim_events r.Mgs.Report.pstats.Mgs.Pstats.net_retries
        r.Mgs.Report.pstats.Mgs.Pstats.net_dups r.Mgs.Report.pstats.Mgs.Pstats.net_timeouts
        Mgs.Report.pp_outcome r.Mgs.Report.outcome)
    points

(* Pure versions on (cluster, runtime) pairs — the point-based API
   below delegates to these; they are exposed for testing. *)

let runtime_of_rt curve c =
  match List.assoc_opt c curve with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Sweep.runtime_of: no point at cluster size %d (have %s)" c
         (String.concat ", " (List.map (fun (c, _) -> string_of_int c) curve)))

let max_cluster_rt curve = List.fold_left (fun acc (c, _) -> max acc c) 0 curve

let breakup_penalty_rt curve =
  let p = max_cluster_rt curve in
  let tp = float_of_int (runtime_of_rt curve p) in
  let tp2 = float_of_int (runtime_of_rt curve (p / 2)) in
  (tp2 -. tp) /. tp

let multigrain_potential_rt curve =
  let p = max_cluster_rt curve in
  let t1 = float_of_int (runtime_of_rt curve 1) in
  let tp2 = float_of_int (runtime_of_rt curve (p / 2)) in
  (t1 -. tp2) /. tp2

let multigrain_curvature_rt curve =
  let p = max_cluster_rt curve in
  let t1 = float_of_int (runtime_of_rt curve 1) in
  let tp2 = float_of_int (runtime_of_rt curve (p / 2)) in
  let logmax = log (float_of_int (p / 2)) in
  if logmax <= 0. then 0.
  else begin
    (* interior points C = 2 .. P/4 against the chord in log-C space *)
    let acc = ref 0. and n = ref 0 in
    let rec go c =
      if c < p / 2 then begin
        let x = log (float_of_int c) /. logmax in
        let chord = t1 +. (x *. (tp2 -. t1)) in
        let t = float_of_int (runtime_of_rt curve c) in
        acc := !acc +. ((chord -. t) /. t1);
        incr n;
        go (2 * c)
      end
    in
    go 2;
    if !n = 0 then 0. else !acc /. float_of_int !n
  end

let curvature_class_rt curve =
  let k = multigrain_curvature_rt curve in
  if k > 0.02 then "convex" else if k < -0.02 then "concave" else "flat"

let curve_of points = List.map (fun p -> (p.cluster, p.report.Mgs.Report.runtime)) points

let runtime_of points c = runtime_of_rt (curve_of points) c

let breakup_penalty points = breakup_penalty_rt (curve_of points)

let multigrain_potential points = multigrain_potential_rt (curve_of points)

let multigrain_curvature points = multigrain_curvature_rt (curve_of points)

let curvature_class points = curvature_class_rt (curve_of points)
