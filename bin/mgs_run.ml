(* Command-line driver: run any of the paper's applications on any
   DSSMP configuration, either a single point or a full cluster-size
   sweep (the paper's framework).

     mgs_run --app water --procs 32 --cluster 8
     mgs_run --app tsp --procs 16 --sweep
     mgs_run --app water --procs 32 --sweep -j 4   # points on 4 domains
     mgs_run --app barnes --size 64 --iters 1 --delay 2000 --sweep *)

open Cmdliner

(* All workload selection goes through the Mgs_harness.Workload
   registry; Workloads.ensure forces the registering module to link. *)
let () = Mgs_apps.Workloads.ensure ()

let cli_err msg =
  Printf.eprintf "mgs_run: %s\n%!" msg;
  exit 2

(* Resolve the workload and build its arguments, turning registry
   errors (unknown workload, unknown or malformed parameter) into CLI
   errors that list the accepted names. *)
let workload ~app ~size ~iters ~lock ~params =
  let (module W : Mgs_harness.Workload.WORKLOAD) =
    try Mgs_harness.Workload.of_name app with Invalid_argument msg -> cli_err msg
  in
  let extra =
    List.map
      (fun s ->
        try Mgs_harness.Workload.parse_kv s with Invalid_argument msg -> cli_err msg)
      params
  in
  (* --lock defaults to the token lock for every app; only an explicit
     non-default selection is pushed through [args], so apps without a
     lock knob keep accepting the default silently. *)
  let lock = match lock with Mgs_sync.Locks.Token -> None | kind -> Some kind in
  let args = { Mgs_harness.Workload.size; iters; lock; extra } in
  match (W.instantiate args, W.problem_size args) with
  | w, desc -> (w, desc, W.epilogue)
  | exception Invalid_argument msg -> cli_err msg

(* In sweep mode each cluster size gets its own export file:
   out.json -> out.c1.json, out.c2.json, ... *)
let trace_file base ~sweep ~cluster =
  if not sweep then base
  else
    let stem, ext =
      match Filename.extension base with
      | "" -> (base, ".json")
      | ext -> (Filename.remove_extension base, ext)
    in
    Printf.sprintf "%s.c%d%s" stem cluster ext

exception Trace_write_error of string

let with_out file f =
  let oc = try open_out file with Sys_error msg -> raise (Trace_write_error msg) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let run app size iters params procs cluster delay page_bytes protocol lock faults seed
    sweep jobs par adapt trace spans metrics hist check csv engine_stats =
  let w, size_desc, epilogue = workload ~app ~size ~iters ~lock ~params in
  (* one machine description for every point, fault plan included; a
     configuration the machine refuses is a CLI error *)
  let base =
    try
      Mgs.Machine.config
        ~page_words:(page_bytes / Mgs_mem.Geom.bytes_per_word)
        ~lan_latency:delay ~par_jobs:par ~adapt ~protocol ?faults ~fault_seed:seed
        ~nprocs:procs
        ~cluster:(Option.value ~default:procs cluster)
        ()
    with Invalid_argument msg -> cli_err msg
  in
  let faulted = not (Mgs_net.Fault.is_zero base.faults) in
  Printf.printf "app=%s (%s)  P=%d  delay=%d cycles  page=%dB  protocol=%s%s%s\n%!" app
    size_desc procs delay page_bytes (Mgs.Protocol.name_of protocol)
    (if adapt then "  adapt=on" else "")
    (match lock with
    | Mgs_sync.Locks.Token -> ""
    | kind -> "  lock=" ^ Mgs_sync.Locks.name_of kind);
  if faulted then
    Printf.printf "faults: %s  seed=%d\n%!" (Mgs_net.Fault.to_string base.faults) seed;
  (* A point may run on a helper domain (--sweep -j N), so it never
     prints directly: per-point output is buffered and emitted in
     cluster order afterwards, making -j N output identical to -j 1. *)
  let run_one cluster =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let m = Mgs.Machine.create { base with cluster } in
    if trace <> None || hist || spans <> None then ignore (Mgs.Machine.enable_trace m);
    if metrics <> None then ignore (Mgs.Machine.enable_metrics m);
    let checker = if check then Some (Mgs.Machine.enable_checker m) else None in
    let body, wcheck = w.Mgs_harness.Sweep.prepare m in
    let report = Mgs.Machine.run m body in
    if Mgs.Report.completed report then begin
      Mgs.Machine.assert_quiescent m;
      wcheck m
    end;
    if faulted then begin
      let s = Mgs_net.Lan.stats m.Mgs.State.lan in
      Format.fprintf ppf "net: retries=%d dups=%d timeouts=%d acks=%d@."
        s.Mgs_net.Lan.retransmits s.Mgs_net.Lan.dup_drops s.Mgs_net.Lan.timeouts
        s.Mgs_net.Lan.acks
    end;
    (match (trace, Mgs.Machine.trace m) with
    | Some base, Some tr ->
      let file = trace_file base ~sweep ~cluster in
      with_out file (fun oc -> Mgs_obs.Trace.write_chrome tr oc);
      Format.fprintf ppf "trace: %d events (%d dropped) -> %s@." (Mgs_obs.Trace.emitted tr)
        (Mgs_obs.Trace.dropped tr) file
    | _ -> ());
    (* A lossy ring or a full span store makes any downstream
       decomposition suspect: warn loudly on every traced run.  Under
       --hist the summary below carries the warning. *)
    (match Mgs.Machine.trace m with
    | Some tr when not hist ->
      Format.fprintf ppf "%a" Mgs_obs.Trace.pp_overflow_warning tr
    | _ -> ());
    let breakdown =
      match (spans, Mgs.Machine.trace m) with
      | Some base, Some tr ->
        let sp = Mgs_obs.Trace.spans tr in
        let file = trace_file base ~sweep ~cluster in
        with_out file (fun oc -> Mgs_obs.Span.write_json sp oc);
        Format.fprintf ppf "spans: %d in %d transactions (%d dropped) -> %s@."
          (Mgs_obs.Span.count sp) (Mgs_obs.Span.txns sp) (Mgs_obs.Span.dropped sp) file;
        Some (Mgs_obs.Span.fault_breakdown sp)
      | _ -> None
    in
    (match (metrics, Mgs.Machine.metrics m) with
    | Some base, Some mt ->
      let file = trace_file base ~sweep ~cluster in
      let write_fn =
        if Filename.extension file = ".csv" then Mgs_obs.Metrics.write_csv
        else Mgs_obs.Metrics.write_json
      in
      with_out file (fun oc -> write_fn mt oc);
      Format.fprintf ppf "metrics: %d samples x %d series (%d dropped) -> %s@."
        (Mgs_obs.Metrics.sample_count mt)
        (List.length (Mgs_obs.Metrics.columns mt))
        (Mgs_obs.Metrics.dropped mt) file
    | _ -> ());
    if engine_stats then
      Format.fprintf ppf "%s" (Mgs_harness.Figures.pp_shard_table m.Mgs.State.sim);
    (match Mgs.Machine.trace m with
    | Some tr when hist ->
      Format.fprintf ppf "%a@." Mgs_obs.Trace.pp_summary tr;
      (* only the simulation-deterministic part of the throughput stats:
         host wall time would break the -j N = -j 1 output guarantee *)
      Format.fprintf ppf "throughput: events=%d peak_queue=%d@."
        report.Mgs.Report.sim_events report.Mgs.Report.peak_queue
    | _ -> ());
    (* workload-specific post-run report (e.g. the KV tier's
       tail-latency table), rendered from the machine's observability
       state into the per-point buffer so -j N output stays identical *)
    Format.fprintf ppf "%s" (epilogue m);
    let violations =
      match checker with
      | Some c ->
        Mgs.Invariant.finish c;
        Format.fprintf ppf "%a@?" Mgs.Invariant.pp c;
        Mgs.Invariant.count c
      | None -> 0
    in
    Format.pp_print_flush ppf ();
    ( { Mgs_harness.Sweep.cluster; report },
      Buffer.contents buf,
      violations,
      breakdown )
  in
  let violations = ref 0 in
  let partitioned = ref false in
  let note_outcome p =
    if not (Mgs.Report.completed p.Mgs_harness.Sweep.report) then partitioned := true
  in
  (try
     if sweep then begin
       let results =
         Mgs_util.Dpool.map ~jobs run_one (Mgs_harness.Sweep.clusters_of procs)
       in
       List.iter
         (fun (_, out, v, _) ->
           print_string out;
           violations := !violations + v)
         results;
       let points = List.map (fun (p, _, _, _) -> p) results in
       List.iter note_outcome points;
       if csv then print_string (Mgs_harness.Figures.csv_of_sweep ~name:app points)
       else
         print_string
           (Mgs_harness.Figures.breakdown_figure
              ~title:(Printf.sprintf "%s, P = %d" app procs)
              points);
       let latency_rows =
         List.filter_map (fun (p, _, _, b) -> Option.map (fun b -> (p, b)) b) results
       in
       if latency_rows <> [] then
         print_string (Mgs_harness.Figures.fault_latency latency_rows)
     end
     else begin
       let p, out, v, b = run_one base.cluster in
       print_string out;
       violations := v;
       note_outcome p;
       Format.printf "%a@." Mgs.Report.pp p.Mgs_harness.Sweep.report;
       Format.printf "lock hit ratio: %.3f@."
         (Mgs.Report.lock_hit_ratio p.Mgs_harness.Sweep.report);
       match b with
       | Some b -> print_string (Mgs_harness.Figures.fault_latency [ (p, b) ])
       | None -> ()
     end
   with Trace_write_error msg ->
     Printf.eprintf "mgs_run: cannot write trace: %s\n%!" msg;
     exit 2);
  if not !partitioned then print_endline "verification: OK";
  if !violations > 0 then exit 3;
  if !partitioned then exit 4

let app_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "app"; "a" ] ~docv:"APP"
        ~doc:
          (Printf.sprintf "Workload to run (from the workload registry): %s."
             (String.concat ", " (Mgs_harness.Workload.names ()))))

let size_t =
  Arg.(value & opt (some int) None & info [ "size"; "n" ] ~docv:"N" ~doc:"Problem size.")

let iters_t =
  Arg.(value & opt (some int) None & info [ "iters"; "i" ] ~docv:"I" ~doc:"Iterations.")

let params_t =
  Arg.(
    value & opt_all string []
    & info [ "param" ] ~docv:"KEY=VALUE"
        ~doc:
          "Workload-specific parameter (repeatable), validated against the workload's \
           published spec — an unknown key is an error naming the accepted ones.  \
           E.g. $(b,--app kv --param theta=1.2 --param put=50).")

let procs_t =
  Arg.(value & opt int 32 & info [ "procs"; "p" ] ~docv:"P" ~doc:"Total processors.")

let cluster_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "cluster"; "c" ] ~docv:"C" ~doc:"Processors per SSMP (default: P).")

let delay_t =
  Arg.(
    value & opt int 1000
    & info [ "delay"; "d" ] ~docv:"CYCLES" ~doc:"Inter-SSMP message latency.")

let page_t =
  Arg.(value & opt int 1024 & info [ "page-bytes" ] ~docv:"B" ~doc:"Page size in bytes.")

let protocol_t =
  let names = Mgs.Protocol.names () in
  Arg.(
    value
    & opt
        (enum (List.map (fun n -> (n, Mgs.Protocol.proto_of_name n)) names))
        Mgs.State.Protocol_mgs
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:(Printf.sprintf "Inter-SSMP protocol: %s." (String.concat ", " names)))

let lock_t =
  let open Mgs_sync.Locks in
  Arg.(
    value
    & opt (enum (List.map (fun k -> (name_of k, k)) all)) Token
    & info [ "lock" ] ~docv:"LOCK"
        ~doc:
          (Printf.sprintf
             "Lock algorithm for the workloads with a lock knob (tsp, water, barnes, \
              kv): %s."
             (String.concat ", " (names ()))))

let faults_t =
  let spec_conv =
    let parse s =
      match Mgs_net.Fault.of_string s with
      | spec -> Ok spec
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    let print ppf spec = Format.pp_print_string ppf (Mgs_net.Fault.to_string spec) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some spec_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic network faults on the inter-SSMP LAN.  $(docv) is a \
           comma-separated list, e.g. \
           $(b,drop=0.05,dup=0.05,delay=0.1:2000,reorder=0.05,slow=1:2.0,retries=10); \
           $(b,none) disables injection.  Handlers remain exactly-once: the reliable \
           transport retries lost messages and a run that exhausts retries reports a \
           PARTITIONED outcome (exit status 4).")

let seed_t =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Fault-injection RNG seed (with $(b,--faults)).  Runs with the same seed and \
           spec are fully deterministic.")

let sweep_t =
  Arg.(
    value & flag
    & info [ "sweep"; "s" ] ~doc:"Sweep cluster sizes 1..P (the powers of two that divide P).")

let jobs_t =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run up to $(docv) sweep points concurrently on separate domains.  \
           Output is identical to a sequential run.")

let par_t =
  Arg.(
    value & opt int 1
    & info [ "par" ] ~docv:"N"
        ~doc:
          "Run each point's event engine, which keeps one event partition per SSMP, \
           on up to $(docv) domains with the inter-SSMP latency as the conservative \
           lookahead window.  Results are byte-identical for every $(docv), including \
           every observability export (--trace, --spans, --metrics record per shard \
           and merge deterministically) and the --check listing.  The shadow heap \
           (MGS_SHADOW=1) runs on N domains too; a data-race-free program prints the \
           same SHADOW lines at every $(docv), but a racy one (kv's lockless gets) may \
           print a different number.  A zero --delay leaves no lookahead window and \
           runs on one domain.")

let adapt_t =
  Arg.(
    value & flag
    & info [ "adapt" ]
        ~doc:
          "Adaptive per-page coherence: classify each page's sharing pattern online \
           at invalidation-epoch boundaries, switch it between the multiple-writer, \
           single-writer (twinless) and invalidate-on-read regimes, and migrate its \
           home to a dominant writer's SSMP.  Decisions are deterministic; with the \
           flag off every export is byte-identical to a build without the layer.  \
           Requires a protocol with adaptive regimes (mgs or hlrc).")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the protocol event trace to $(docv) in Chrome trace_event JSON \
           (load in chrome://tracing or ui.perfetto.dev).  With --sweep, one file \
           per cluster size ($(docv) gains a .cN suffix).")

let spans_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:
          "Write the causal transaction spans to $(docv) as JSON (schema \
           mgs-spans-1) and print the span-derived remote-fault latency \
           breakdown.  With --sweep, one file per cluster size.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Sample machine metrics (per-shard engine progress, DUQ lengths, pages \
           per state, messages in flight) on the simulated clock and write the \
           time-series to $(docv): CSV if $(docv) ends in .csv, otherwise JSON \
           (schema mgs-metrics-1).  Each series reads a counter the SSMP's shard \
           keeps anyway, and nothing else is recorded: without --trace, --spans \
           or --hist there is no trace, and spans.open counts only spans an \
           application records itself.  A run longer than 4096 samples per SSMP \
           doubles its sampling interval as often as needed, so the file covers \
           the whole run.  The file is byte-identical at every --par.  With \
           --sweep, one file per cluster size.")

let hist_t =
  Arg.(
    value & flag
    & info [ "hist" ] ~doc:"Print per-event-tag latency histograms after the run.")

let check_t =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Run the online protocol invariant checker, which the protocol engines call \
           at every transition; it records no trace and keeps every --par domain.  \
           Exit with status 3 if any invariant is violated.  The invariants are MGS's: \
           under hlrc and ivy only span balance is checked, and only when spans are \
           recorded, and the run prints $(b,invariants: none for) PROTOCOL.")

let csv_t =
  Arg.(value & flag & info [ "csv" ] ~doc:"With --sweep: print CSV instead of the figure.")

let engine_stats_t =
  Arg.(
    value & flag
    & info [ "engine-stats" ]
        ~doc:
          "Print the engine's per-shard self-profile after each point (events \
           executed, cross-shard sends, clamps, peak heap, outbox merges, \
           window stalls, wall time), read from counters the engine always \
           keeps: it records nothing and leaves --metrics unchanged.  The \
           peak, merge, stall and wall columns describe the host-side run and \
           are not byte-stable across --par job counts, which is why the \
           table is opt-in.  At --par 1 one heap drains every shard, so the \
           per-shard peak and wall columns print - and the footer gives the \
           heap's peak.")

let cmd =
  let doc = "run MGS multigrain shared-memory applications on a simulated DSSMP" in
  Cmd.v
    (Cmd.info "mgs_run" ~doc)
    Term.(
      const run $ app_t $ size_t $ iters_t $ params_t $ procs_t $ cluster_t $ delay_t $ page_t
      $ protocol_t $ lock_t $ faults_t $ seed_t $ sweep_t $ jobs_t $ par_t $ adapt_t
      $ trace_t $ spans_t $ metrics_t $ hist_t $ check_t $ csv_t $ engine_stats_t)

let () = exit (Cmd.eval cmd)
