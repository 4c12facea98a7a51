type variant = {
  label : string;
  page_words : int;
  lan_latency : int;
  features : Mgs.State.features;
  protocol : string;  (* a Mgs.Protocol registry name *)
  tlb_entries : int option;
  adapt : bool;
}

let baseline =
  {
    label = "baseline";
    page_words = 256;
    lan_latency = 1000;
    features = Mgs.State.default_features;
    protocol = "mgs";
    tlb_entries = None;
    adapt = false;
  }

let protocol_study () =
  [
    { baseline with label = "MGS (eager RC)" };
    { baseline with label = "HLRC (lazy RC)"; protocol = "hlrc" };
    { baseline with label = "Ivy (SC)"; protocol = "ivy" };
  ]

let pipelined_release_study () =
  [
    { baseline with label = "serial RELs (Table 1)" };
    {
      baseline with
      label = "pipelined RELs";
      features = { Mgs.State.default_features with pipelined_release = true };
    };
  ]

let single_writer_study () =
  [
    baseline;
    {
      baseline with
      label = "no single-writer opt";
      features = { Mgs.State.default_features with single_writer_opt = false };
    };
  ]

let early_ack_study () =
  [
    baseline;
    {
      baseline with
      label = "early read ack";
      features = { Mgs.State.default_features with early_read_ack = true };
    };
  ]

let page_size_study () =
  List.map
    (fun pw -> { baseline with label = Printf.sprintf "%dB pages" (pw * 4); page_words = pw })
    [ 128; 256; 512; 1024 ]

let tlb_study () =
  { baseline with label = "unbounded TLB" }
  :: List.map
       (fun n -> { baseline with label = Printf.sprintf "%d-entry TLB" n; tlb_entries = Some n })
       [ 64; 16; 4 ]

let latency_study () =
  List.map
    (fun d -> { baseline with label = Printf.sprintf "latency %d" d; lan_latency = d })
    [ 0; 1000; 4000; 16000 ]

let adapt_study () =
  [
    { baseline with label = "static mgs" };
    { baseline with label = "adaptive mgs"; adapt = true };
    { baseline with label = "static hlrc"; protocol = "hlrc" };
    { baseline with label = "adaptive hlrc"; protocol = "hlrc"; adapt = true };
  ]

let run ?clusters ?(jobs = 1) ?(par = 1) ~nprocs ~variants w =
  (* feature toggles are not part of Sweep.run_point's interface, so
     drive the machines directly *)
  let clusters = Option.value ~default:(Sweep.clusters_of nprocs) clusters in
  let run_cell (v, cluster) =
    let cfg =
      Mgs.Machine.config ~page_words:v.page_words ~lan_latency:v.lan_latency
        ~features:v.features
        ~protocol:(Mgs.Protocol.proto_of_name v.protocol)
        ?tlb_entries:v.tlb_entries ~par_jobs:par ~adapt:v.adapt ~nprocs ~cluster ()
    in
    let m = Mgs.Machine.create cfg in
    let body, check = w.Sweep.prepare m in
    let report = Mgs.Machine.run m body in
    Mgs.Machine.assert_quiescent m;
    check m;
    (cluster, report.Mgs.Report.runtime)
  in
  (* fan the whole variant x cluster grid through the domain pool, then
     regroup the (order-preserving) flat result list per variant *)
  let grid = List.concat_map (fun v -> List.map (fun c -> (v, c)) clusters) variants in
  let flat = ref (Mgs_util.Dpool.map ~jobs run_cell grid) in
  let per_variant = List.length clusters in
  let results =
    List.map
      (fun v ->
        let rec take n acc rest =
          if n = 0 then (List.rev acc, rest)
          else match rest with [] -> assert false | x :: tl -> take (n - 1) (x :: acc) tl
        in
        let curve, rest = take per_variant [] !flat in
        flat := rest;
        (v, curve))
      variants
  in
  let header = "C" :: List.map (fun (v, _) -> v.label) results in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun (_, curve) ->
               Mgs_util.Tableprint.fmt_cycles (float_of_int (Sweep.runtime_of_rt curve c)))
             results)
      clusters
  in
  let metric_rows =
    [
      "breakup"
      :: List.map
           (fun (_, curve) -> Printf.sprintf "%.0f%%" (100. *. Sweep.breakup_penalty_rt curve))
           results;
      "potential"
      :: List.map
           (fun (_, curve) ->
             Printf.sprintf "%.0f%%" (100. *. Sweep.multigrain_potential_rt curve))
           results;
      "curvature" :: List.map (fun (_, curve) -> Sweep.curvature_class_rt curve) results;
    ]
  in
  Printf.sprintf "%s (P = %d)\n%s" w.Sweep.name nprocs
    (Mgs_util.Tableprint.render ~header ~rows:(rows @ metric_rows))
