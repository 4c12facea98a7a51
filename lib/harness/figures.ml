let pct x = Printf.sprintf "%.0f%%" (100. *. x)

let breakdown_figure ~title points =
  let labels = List.map (fun p -> Printf.sprintf "C=%d" p.Sweep.cluster) points in
  let values =
    Array.of_list
      (List.map
         (fun p ->
           let b = p.Sweep.report.Mgs.Report.breakdown in
           [| b.Mgs.Report.user; b.Mgs.Report.lock; b.Mgs.Report.barrier; b.Mgs.Report.mgs |])
         points)
  in
  let bars =
    Mgs_util.Tableprint.stacked_bars ~title ~labels
      ~series_names:[ "User"; "Lock"; "Barrier"; "MGS" ]
      ~values ()
  in
  let rows =
    List.map
      (fun p ->
        let r = p.Sweep.report in
        let b = r.Mgs.Report.breakdown in
        [
          string_of_int p.Sweep.cluster;
          string_of_int r.Mgs.Report.runtime;
          Printf.sprintf "%.0f" b.Mgs.Report.user;
          Printf.sprintf "%.0f" b.Mgs.Report.lock;
          Printf.sprintf "%.0f" b.Mgs.Report.barrier;
          Printf.sprintf "%.0f" b.Mgs.Report.mgs;
          string_of_int r.Mgs.Report.lan_messages;
        ])
      points
  in
  let table =
    Mgs_util.Tableprint.render
      ~header:[ "C"; "Runtime"; "User"; "Lock"; "Barrier"; "MGS"; "LAN msgs" ]
      ~rows
  in
  let metrics =
    Printf.sprintf "breakup penalty = %s, multigrain potential = %s, curvature = %s (%.3f)\n"
      (pct (Sweep.breakup_penalty points))
      (pct (Sweep.multigrain_potential points))
      (Sweep.curvature_class points)
      (Sweep.multigrain_curvature points)
  in
  bars ^ "\n" ^ table ^ metrics

let lock_figure named_sweeps =
  let clusters =
    match named_sweeps with
    | (_, points) :: _ -> List.map (fun p -> p.Sweep.cluster) points
    | [] -> []
  in
  let header = "App" :: List.map (fun c -> Printf.sprintf "C=%d" c) clusters in
  let rows =
    List.map
      (fun (name, points) ->
        name
        :: List.map (fun p -> Printf.sprintf "%.3f" p.Sweep.lock_hit_ratio) points)
      named_sweeps
  in
  Mgs_util.Tableprint.render ~header ~rows

(* Figure-11 companion: the contended-lock microbenchmark family.
   One row per (lock, protocol, C, fibers) point — handoff latency
   (mean/max gap from a release to the next cross-processor acquire),
   hit ratio, and fairness as the gap's coefficient of variation. *)
let pp_lock_table points =
  let rows =
    List.map
      (fun (p : Micro.lock_point) ->
        let g = p.Micro.lk_gap in
        [
          Mgs_sync.Locks.name_of p.Micro.lk_lock;
          p.Micro.lk_protocol;
          string_of_int p.Micro.lk_cluster;
          string_of_int p.Micro.lk_fibers;
          string_of_int p.Micro.lk_acquires;
          Printf.sprintf "%.3f" p.Micro.lk_hit_ratio;
          string_of_int p.Micro.lk_handoffs;
          (if g.Mgs_sync.Locks.n = 0 then "-"
           else Printf.sprintf "%.0f" g.Mgs_sync.Locks.mean);
          (if g.Mgs_sync.Locks.n = 0 then "-" else string_of_int g.Mgs_sync.Locks.max);
          (if g.Mgs_sync.Locks.n = 0 then "-"
           else Printf.sprintf "%.2f" g.Mgs_sync.Locks.cv);
          string_of_int p.Micro.lk_runtime;
        ])
      points
  in
  Mgs_util.Tableprint.render
    ~header:
      [
        "Lock"; "Proto"; "C"; "Fibers"; "Acquires"; "Hit"; "Handoffs"; "Gap mean";
        "Gap max"; "Gap cv"; "Runtime";
      ]
    ~rows

(* Adaptive-vs-static ablation table: one row per (app, protocol, P, C)
   cell, pairing the static run's cycles against the adaptive run's and
   showing what the adaptive layer actually did (reclassifications,
   home migrations, forwarded requests, yielded pages). *)
type adapt_row = {
  ar_app : string;
  ar_protocol : string;
  ar_procs : int;
  ar_cluster : int;
  ar_static : Mgs.Report.t;
  ar_adapt : Mgs.Report.t;
}

let pp_adapt_table rows =
  let table_rows =
    List.map
      (fun r ->
        let s = r.ar_static.Mgs.Report.runtime and a = r.ar_adapt.Mgs.Report.runtime in
        let delta =
          if s = 0 then "-"
          else Printf.sprintf "%+.1f%%" (100. *. float_of_int (a - s) /. float_of_int s)
        in
        let ps = r.ar_adapt.Mgs.Report.pstats in
        [
          r.ar_app;
          r.ar_protocol;
          string_of_int r.ar_procs;
          string_of_int r.ar_cluster;
          string_of_int s;
          string_of_int a;
          delta;
          string_of_int ps.Mgs.Pstats.adapt_reclass;
          string_of_int ps.Mgs.Pstats.adapt_migs;
          string_of_int ps.Mgs.Pstats.adapt_fwds;
          string_of_int ps.Mgs.Pstats.adapt_yields;
          Printf.sprintf "%d/%d/%d" ps.Mgs.Pstats.adapt_res_mw ps.Mgs.Pstats.adapt_res_sw
            ps.Mgs.Pstats.adapt_res_inv;
        ])
      rows
  in
  Mgs_util.Tableprint.render
    ~header:
      [
        "App"; "Proto"; "P"; "C"; "Static"; "Adaptive"; "Delta"; "Reclass"; "Migs";
        "Fwds"; "Yields"; "Res mw/sw/inv";
      ]
    ~rows:table_rows

(* Engine self-profile: one row per shard of the discrete-event engine.
   Executed and cross-shard sends are deterministic (identical between
   jobs=1 and jobs>=2); merges, stalls, and wall seconds describe the
   host-side windowed run and vary with scheduling. *)
let pp_shard_table sim =
  let rows =
    Mgs_engine.Sim.shard_stats sim |> Array.to_list
    |> List.map (fun (s : Mgs_engine.Sim.shard_stat) ->
           [
             string_of_int s.Mgs_engine.Sim.st_id;
             string_of_int s.Mgs_engine.Sim.st_executed;
             string_of_int s.Mgs_engine.Sim.st_xsends;
             string_of_int s.Mgs_engine.Sim.st_clamped;
             string_of_int s.Mgs_engine.Sim.st_peak;
             string_of_int s.Mgs_engine.Sim.st_merges;
             string_of_int s.Mgs_engine.Sim.st_stalls;
             Printf.sprintf "%.3f" s.Mgs_engine.Sim.st_wall;
           ])
  in
  let table =
    Mgs_util.Tableprint.render
      ~header:
        [
          "Shard"; "Executed"; "X-sends"; "Clamped"; "Peak"; "Merges"; "Stalls"; "Wall s";
        ]
      ~rows
  in
  table
  ^ Printf.sprintf "windows = %d, barrier wall = %.3fs\n" (Mgs_engine.Sim.windows sim)
      (Mgs_engine.Sim.barrier_wall sim)

let csv_of_sweep ~name points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "app,cluster,runtime,user,lock,barrier,mgs,lan_messages,lan_words,lock_hit_ratio\n";
  List.iter
    (fun p ->
      let r = p.Sweep.report in
      let b = r.Mgs.Report.breakdown in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%.0f,%.0f,%.0f,%.0f,%d,%d,%.4f\n" name p.Sweep.cluster
           r.Mgs.Report.runtime b.Mgs.Report.user b.Mgs.Report.lock b.Mgs.Report.barrier
           b.Mgs.Report.mgs r.Mgs.Report.lan_messages r.Mgs.Report.lan_words
           p.Sweep.lock_hit_ratio))
    points;
  Buffer.contents buf

let message_mix points =
  (* union of tags across the sweep, one column per cluster size *)
  let tags =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> List.map fst p.Sweep.report.Mgs.Report.messages_by_tag)
         points)
  in
  let header = "tag" :: List.map (fun p -> Printf.sprintf "C=%d" p.Sweep.cluster) points in
  let rows =
    List.map
      (fun tag ->
        tag
        :: List.map
             (fun p ->
               string_of_int
                 (Option.value ~default:0
                    (List.assoc_opt tag p.Sweep.report.Mgs.Report.messages_by_tag)))
             points)
      tags
  in
  Mgs_util.Tableprint.render ~header ~rows

let protocol_ops points =
  (* one row per protocol counter, one column per cluster size — the
     operation-mix companion to [message_mix], including the
     single-writer reply split (1WDATA vs 1WCLEAN) *)
  let counters =
    [
      ("read fetches", fun (s : Mgs.Pstats.t) -> s.Mgs.Pstats.read_fetches);
      ("write fetches", fun s -> s.Mgs.Pstats.write_fetches);
      ("upgrades", fun s -> s.Mgs.Pstats.upgrades);
      ("release ops", fun s -> s.Mgs.Pstats.release_ops);
      ("RELs", fun s -> s.Mgs.Pstats.releases);
      ("SYNCs", fun s -> s.Mgs.Pstats.syncs);
      ("INVs", fun s -> s.Mgs.Pstats.invals);
      ("1WINVs", fun s -> s.Mgs.Pstats.one_winvals);
      ("PINVs", fun s -> s.Mgs.Pstats.pinvs);
      ("ACK replies", fun s -> s.Mgs.Pstats.acks);
      ("DIFF replies", fun s -> s.Mgs.Pstats.diffs);
      ("diff words", fun s -> s.Mgs.Pstats.diff_words);
      ("1WDATA replies", fun s -> s.Mgs.Pstats.one_wdata);
      ("1WCLEAN replies", fun s -> s.Mgs.Pstats.one_wclean);
    ]
  in
  let header =
    "operation" :: List.map (fun p -> Printf.sprintf "C=%d" p.Sweep.cluster) points
  in
  let rows =
    List.map
      (fun (name, get) ->
        name
        :: List.map
             (fun p -> string_of_int (get p.Sweep.report.Mgs.Report.pstats))
             points)
      counters
  in
  Mgs_util.Tableprint.render ~header ~rows

(* Table-4-style remote-fault latency decomposition, rendered purely
   from the span-derived critical-path breakdown: per-fault averages of
   each pipeline component plus the uninstrumented residual. *)
let fault_latency rows =
  let per b n = if b.Mgs_obs.Span.faults = 0 then "-" else
      Printf.sprintf "%.0f" (float_of_int n /. float_of_int b.Mgs_obs.Span.faults)
  in
  let table_rows =
    List.map
      (fun (cluster, b) ->
        let open Mgs_obs.Span in
        [
          string_of_int cluster;
          string_of_int b.faults;
          per b b.e2e;
          per b b.local;
          per b b.wire;
          per b b.dma;
          per b b.server;
          per b b.remote;
          per b b.queue;
          per b b.residual;
          Printf.sprintf "%.1f%%" (100. *. Mgs_obs.Span.coverage b);
        ])
      rows
  in
  "Remote page-fault latency breakdown (cycles per fault, span-derived)\n"
  ^ Mgs_util.Tableprint.render
      ~header:
        [
          "C"; "Faults"; "E2E"; "Local"; "Wire"; "DMA"; "Server"; "Remote"; "Queue";
          "Resid"; "Coverage";
        ]
      ~rows:table_rows

(* Tail-latency table for the request-serving tier: one row per
   operation class, percentiles in simulated cycles. *)
type latency_row = {
  lr_op : string;
  lr_count : int;
  lr_mean : float;
  lr_p50 : int;
  lr_p99 : int;
  lr_p999 : int;
  lr_max : int;
}

let pp_latency_table ?coverage rows =
  let table_rows =
    List.map
      (fun r ->
        [
          r.lr_op;
          string_of_int r.lr_count;
          Printf.sprintf "%.0f" r.lr_mean;
          string_of_int r.lr_p50;
          string_of_int r.lr_p99;
          string_of_int r.lr_p999;
          string_of_int r.lr_max;
        ])
      rows
  in
  "Request latency (simulated cycles, open-loop: queueing included)\n"
  ^ Mgs_util.Tableprint.render
      ~header:[ "op"; "count"; "mean"; "p50"; "p99"; "p999"; "max" ]
      ~rows:table_rows
  ^
  match coverage with
  | None -> ""
  | Some c -> Printf.sprintf "span attribution: %.1f%% of op latency covered\n" (100. *. c)

type table4_row = { app : string; problem_size : string; seq_runtime : int; speedup : float }

let table4 rows =
  Mgs_util.Tableprint.render
    ~header:[ "Application"; "Problem Size"; "Seq (cycles)"; "Speedup" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.app;
             r.problem_size;
             Mgs_util.Tableprint.fmt_cycles (float_of_int r.seq_runtime);
             Printf.sprintf "%.1f" r.speedup;
           ])
         rows)

let metrics_summary named_sweeps =
  Mgs_util.Tableprint.render
    ~header:[ "App"; "Breakup penalty"; "Multigrain potential"; "Curvature" ]
    ~rows:
      (List.map
         (fun (name, points) ->
           [
             name;
             pct (Sweep.breakup_penalty points);
             pct (Sweep.multigrain_potential points);
             Sweep.curvature_class points;
           ])
         named_sweeps)
