(* Tail-latency reporting for the KV tier, derived entirely from the
   span layer: every completed request is one [kv.get]/[kv.put]/
   [kv.scan] root span covering [arrival, completion] — open-loop
   latency, queueing included — with child spans ([kv.queue],
   [kv.lock], [kv.access]) partitioning the interval.  Percentiles are
   computed exactly over the recorded durations (nearest-rank on the
   sorted array), so the table is byte-identical whenever the spans
   are, i.e. across -j, --par, and reruns. *)

let op_labels = [ "kv.get"; "kv.put"; "kv.scan" ]

let phase_labels = [ "kv.queue"; "kv.lock"; "kv.access" ]

let is_op l = List.mem l op_labels

let is_phase l = List.mem l phase_labels

(* Nearest-rank percentile of a sorted sample array: the smallest value
   with at least [ceil (q * n)] samples at or below it. *)
let percentile_of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let q = if q > 1. then 1. else q in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)
  end

let durations_by_op sp =
  let tbl = Hashtbl.create 4 in
  List.iter (fun l -> Hashtbl.replace tbl l (ref [])) op_labels;
  Mgs_obs.Span.fold_unordered sp ~init:() (fun () ~label ~parent ~t0 ~t1 ->
      if parent = -1 && t1 >= 0 && is_op label then
        let acc = Hashtbl.find tbl label in
        acc := (t1 - t0) :: !acc);
  List.filter_map
    (fun l ->
      let durs = Array.of_list !(Hashtbl.find tbl l) in
      if Array.length durs = 0 then None
      else begin
        Array.sort compare durs;
        Some (l, durs)
      end)
    op_labels

let rows sp =
  List.map
    (fun (l, durs) ->
      let n = Array.length durs in
      let sum = Array.fold_left ( + ) 0 durs in
      {
        Mgs_harness.Figures.lr_op = l;
        lr_count = n;
        lr_mean = float_of_int sum /. float_of_int n;
        lr_p50 = percentile_of_sorted durs 0.50;
        lr_p99 = percentile_of_sorted durs 0.99;
        lr_p999 = percentile_of_sorted durs 0.999;
        lr_max = durs.(n - 1);
      })
    (durations_by_op sp)

(* Fraction of total request latency attributed to a phase span.  The
   phases partition each root interval by construction, so anything
   below 1.0 measures spans lost to the bounded store. *)
let coverage sp =
  let root_time, phase_time =
    Mgs_obs.Span.fold_unordered sp ~init:(0, 0)
      (fun ((root, phase) as acc) ~label ~parent ~t0 ~t1 ->
        if t1 < 0 then acc
        else if parent = -1 && is_op label then (root + t1 - t0, phase)
        else if is_phase label then (root, phase + t1 - t0)
        else acc)
  in
  if root_time = 0 then 1.0 else float_of_int phase_time /. float_of_int root_time

let table sp = Mgs_harness.Figures.pp_latency_table ~coverage:(coverage sp) (rows sp)
