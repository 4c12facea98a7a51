type workload = {
  name : string;
  prepare : Mgs.Machine.t -> (Mgs.Api.ctx -> unit) * (Mgs.Machine.t -> unit);
}

type point = { cluster : int; report : Mgs.Report.t }

(* Past the first power of two that does not divide P, none does. *)
let clusters_of nprocs =
  let rec go c = if c > nprocs || nprocs mod c <> 0 then [] else c :: go (2 * c) in
  go 1

let run_point ?(check = true) (cfg : Mgs.Machine.config) w =
  let m = Mgs.Machine.create cfg in
  let checker = if check then Some (Mgs.Machine.enable_checker m) else None in
  let body, wcheck = w.prepare m in
  let report = Mgs.Machine.run m body in
  (* a partitioned run is a legitimate outcome under faults: the caller
     inspects [report.outcome]; only completed runs can be verified *)
  if Mgs.Report.completed report then begin
    Mgs.Machine.assert_quiescent m;
    wcheck m
  end;
  (match checker with
  | Some c ->
    Mgs.Invariant.finish c;
    if Mgs.Invariant.count c > 0 then
      failwith (Format.asprintf "%s C=%d: %a" w.name cfg.cluster Mgs.Invariant.pp c)
  | None -> ());
  { cluster = cfg.cluster; report }

let sweep ?clusters ?(jobs = 1) (cfg : Mgs.Machine.config) w =
  let clusters = Option.value ~default:(clusters_of cfg.nprocs) clusters in
  (* Every point is a self-contained machine, so the sweep fans out over
     a domain pool; Dpool.map returns results in cluster order, making
     the output independent of [jobs]. *)
  Mgs_util.Dpool.map ~jobs (fun cluster -> run_point { cfg with cluster } w) clusters

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
