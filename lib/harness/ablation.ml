type variant = { label : string; tweak : Mgs.Machine.config -> Mgs.Machine.config }

let variant label (tweak : Mgs.Machine.config -> Mgs.Machine.config) = { label; tweak }

let baseline = variant "baseline" Fun.id

let feature label f = variant label (fun c -> { c with features = f c.features })

let protocol_study () =
  List.map
    (fun (label, protocol) -> variant label (fun c -> { c with protocol }))
    Mgs.State.
      [
        ("MGS (eager RC)", Protocol_mgs);
        ("HLRC (lazy RC)", Protocol_hlrc);
        ("Ivy (SC)", Protocol_ivy);
      ]

let pipelined_release_study () =
  [
    variant "serial RELs (Table 1)" Fun.id;
    feature "pipelined RELs" (fun f -> { f with Mgs.State.pipelined_release = true });
  ]

let single_writer_study () =
  [
    baseline;
    feature "no single-writer opt" (fun f -> { f with Mgs.State.single_writer_opt = false });
  ]

let early_ack_study () =
  [ baseline; feature "early read ack" (fun f -> { f with Mgs.State.early_read_ack = true }) ]

let page_size_study () =
  List.map
    (fun pw ->
      variant (Printf.sprintf "%dB pages" (pw * 4)) (fun c -> { c with page_words = pw }))
    [ 128; 256; 512; 1024 ]

let tlb_study () =
  variant "unbounded TLB" Fun.id
  :: List.map
       (fun n ->
         variant (Printf.sprintf "%d-entry TLB" n) (fun c -> { c with tlb_entries = Some n }))
       [ 64; 16; 4 ]

let latency_study () =
  List.map
    (fun d ->
      variant (Printf.sprintf "latency %d" d) (fun c ->
          { c with costs = Mgs_machine.Costs.with_lan_latency c.costs d }))
    [ 0; 1000; 4000; 16000 ]

let run ?clusters ?(jobs = 1) (base : Mgs.Machine.config) ~variants w =
  let clusters = Option.value ~default:(Sweep.clusters_of base.nprocs) clusters in
  let run_cell (v, cluster) =
    let p = Sweep.run_point { (v.tweak base) with cluster } w in
    (cluster, p.Sweep.report.Mgs.Report.runtime)
  in
  (* fan the whole variant x cluster grid through the domain pool; the
     (order-preserving) results hold each variant's curve in turn *)
  let grid = List.concat_map (fun v -> List.map (fun c -> (v, c)) clusters) variants in
  let flat = Array.of_list (Mgs_util.Dpool.map ~jobs run_cell grid) in
  let n = List.length clusters in
  let curves = List.mapi (fun i _ -> Array.to_list (Array.sub flat (i * n) n)) variants in
  let header = "C" :: List.map (fun v -> v.label) variants in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun curve ->
               Mgs_util.Tableprint.fmt_cycles (float_of_int (Sweep.runtime_of_rt curve c)))
             curves)
      clusters
  in
  let metric_rows =
    [
      "breakup"
      :: List.map
           (fun curve -> Printf.sprintf "%.0f%%" (100. *. Sweep.breakup_penalty_rt curve))
           curves;
      "potential"
      :: List.map
           (fun curve -> Printf.sprintf "%.0f%%" (100. *. Sweep.multigrain_potential_rt curve))
           curves;
      "curvature" :: List.map Sweep.curvature_class_rt curves;
    ]
  in
  Printf.sprintf "%s (P = %d)\n%s" w.Sweep.name base.nprocs
    (Mgs_util.Tableprint.render ~header ~rows:(rows @ metric_rows))
