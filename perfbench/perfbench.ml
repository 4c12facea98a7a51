(* The benchmark's measuring program.  `run.py` drives it; each
   invocation is a fresh process and prints one JSON object.

     perfbench.exe workloads                   the workload table
     perfbench.exe metrics                     the metric table
     perfbench.exe rep   --workload W --seed S [--par J]
         one untraced run: end-to-end metrics (host times unscaled) and
         a digest of the simulated results
     perfbench.exe ref                         one timing of the reference loop
     perfbench.exe trace --workload W --seed S [--untraced-run-s SECONDS]
         the traced run: per-layer counters, micro loops, the identity
         check at the other engine job count, and host spans *)

module Machine = Mgs.Machine
module Report = Mgs.Report
module Sim = Mgs_engine.Sim

let () = Mgs_apps.Workloads.ensure ()

(* --- JSON output ------------------------------------------------------ *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s = "\"" ^ Mgs_obs.Json.escape s ^ "\""

let json_metrics values =
  let entry (name, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
      (json_string (Spec.unit_of name))
  in
  "{" ^ String.concat ", " (List.map entry values) ^ "}"

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let print_fields fields =
  print_endline
    ("{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}")

let fail msg =
  print_fields [ ("ok", "false"); ("error", json_string msg) ];
  exit 1

(* --- host spans -------------------------------------------------------- *)

(* Spans from the benchmark's own code around its calls into each layer:
   kept in memory and printed with the traced run's result. *)
module Hspan = struct
  type t = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let recorded = ref []

  let next = ref 0

  let current = ref (-1)

  let add ~parent name t0 t1 =
    let id = !next in
    incr next;
    recorded := { id; parent; name; t0; t1 } :: !recorded

  let within name f =
    let id = !next in
    incr next;
    let parent = !current in
    current := id;
    let t0 = Rep.now () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        recorded := { id; parent; name; t0; t1 = Rep.now () } :: !recorded)
      f

  (* Self time: duration less the time covered by child spans (children
     of one span never overlap here). *)
  let json () =
    let spans = List.sort (fun a b -> compare a.id b.id) !recorded in
    let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
    let child_time id =
      List.fold_left (fun acc s -> if s.parent = id then acc +. (s.t1 -. s.t0) else acc) 0. spans
    in
    "["
    ^ String.concat ", "
        (List.map
           (fun s ->
             Printf.sprintf
               "{\"id\": %d, \"parent\": %d, \"name\": %s, \"start_s\": %s, \"dur_s\": %s, \
                \"self_s\": %s}"
               s.id s.parent (json_string s.name)
               (json_float (s.t0 -. origin))
               (json_float (s.t1 -. s.t0))
               (json_float (s.t1 -. s.t0 -. child_time s.id)))
           spans)
    ^ "]"
end

(* --- rep ---------------------------------------------------------------- *)

let rep (w : Spec.workload) ~seed ~par =
  let r = Rep.run w ~seed ~par in
  let run_s = r.Rep.run_s in
  let metrics =
    [
      ("setup_s", Rep.setup_s r);
      ("run_s", run_s);
      ("events_per_s", float_of_int r.Rep.report.Report.sim_events /. run_s);
      ("alloc_mb", Rep.alloc_mb r);
      ("peak_rss_mb", Rep.peak_rss_mb ());
      ("sim_cycles", float_of_int r.Rep.report.Report.runtime);
    ]
  in
  print_fields
    [
      ("ok", "true");
      ("seed", string_of_int seed);
      ("par", string_of_int par);
      ("digest", json_string r.Rep.digest);
      ("sim_events", string_of_int r.Rep.report.Report.sim_events);
      ("metrics", json_metrics metrics);
    ]

(* --- traced run ------------------------------------------------------- *)

(* Counters each layer already exposes, read after the traced run. *)
let layer_counters (r : Rep.t) =
  let m = r.Rep.machine and rp = r.Rep.report in
  let sim = Machine.sim m in
  let fi = float_of_int in
  let p = rp.Report.pstats and c = rp.Report.cache in
  let accesses =
    Mgs_cache.Coherence.(
      c.hits + c.local_misses + c.remote_misses + c.misses_2party + c.misses_3party)
  in
  let total = Report.total rp.Report.breakdown in
  let share x = if total > 0. then x /. total else 0. in
  let trace = Machine.trace m in
  let spans = Rep.spans m in
  let of_spans f ~none = Option.fold ~none ~some:f spans in
  let of_trace f = Option.fold ~none:0. ~some:(fun t -> fi (f t)) trace in
  let requests =
    of_spans ~none:0. (fun sp ->
        fi
          (List.fold_left
             (fun acc row -> acc + row.Mgs_harness.Figures.lr_count)
             0 (Mgs_serve.Tail.rows sp)))
  in
  let l = r.Rep.latency in
  let mb w = Rep.words_to_mb w in
  [
    ("engine.events", fi rp.Report.sim_events);
    ("engine.peak_pending", fi (Sim.peak_pending sim));
    ("engine.clamped", fi (Sim.stats sim).Sim.s_clamped);
    ("am.messages", fi (Mgs_am.Am.total_posted m.Mgs.State.am));
    ("net.messages", fi rp.Report.lan_messages);
    ("net.words", fi rp.Report.lan_words);
    ("core.read_faults", fi p.Mgs.Pstats.read_fetches);
    ("core.write_faults", fi (p.Mgs.Pstats.write_fetches + p.Mgs.Pstats.upgrades));
    ("core.releases", fi p.Mgs.Pstats.releases);
    ("core.invalidations", fi (p.Mgs.Pstats.invals + p.Mgs.Pstats.one_winvals));
    ("core.mgs_share", share rp.Report.breakdown.Report.mgs);
    ("cache.accesses", fi accesses);
    ("cache.misses", fi (accesses - c.Mgs_cache.Coherence.hits));
    ( "svm.tlb_fills",
      fi (Array.fold_left (fun acc t -> acc + Mgs_svm.Tlb.fills t) 0 m.Mgs.State.tlbs) );
    ("mem.diffs", fi p.Mgs.Pstats.diffs);
    ("mem.diff_words", fi p.Mgs.Pstats.diff_words);
    ("sync.lock_acquires", fi rp.Report.lock_acquires);
    ("sync.lock_hit_ratio", Report.lock_hit_ratio rp);
    ("sync.barrier_episodes", fi rp.Report.barrier_episodes);
    ("sync.lock_share", share rp.Report.breakdown.Report.lock);
    ("obs.spans", of_spans ~none:0. (fun sp -> fi (Mgs_obs.Span.count sp)));
    ("obs.spans_dropped", of_spans ~none:0. (fun sp -> fi (Mgs_obs.Span.dropped sp)));
    ("obs.trace_emitted", of_trace Mgs_obs.Trace.emitted);
    ("obs.trace_dropped", of_trace Mgs_obs.Trace.dropped);
    ("serve.requests", requests);
    ("serve.coverage", of_spans ~none:1. Mgs_serve.Tail.coverage);
    ("kv_get_p50_cycles", fi l.Rep.get_p50);
    ("kv_get_p99_cycles", fi l.Rep.get_p99);
    ("kv_put_p50_cycles", fi l.Rep.put_p50);
    ("kv_put_p99_cycles", fi l.Rep.put_p99);
    ("harness.create_s", r.Rep.create_s);
    ("harness.prepare_s", r.Rep.prepare_s);
    ("harness.report_s", r.Rep.report_s);
    ( "gc.minor_collections",
      fi (r.Rep.gc1.Gc.minor_collections - r.Rep.gc0.Gc.minor_collections) );
    ( "gc.major_collections",
      fi (r.Rep.gc1.Gc.major_collections - r.Rep.gc0.Gc.major_collections) );
    ("gc.promoted_mb", mb (r.Rep.gc1.Gc.promoted_words -. r.Rep.gc0.Gc.promoted_words));
  ]

(* The windowed engine's counters.  They read 0 at par 1. *)
let windowing (r : Rep.t) =
  let sim = Machine.sim r.Rep.machine in
  let over_shards f =
    float_of_int (Array.fold_left (fun acc s -> acc + f s) 0 (Sim.shard_stats sim))
  in
  [
    ("engine.xsends", over_shards (fun s -> s.Sim.st_xsends));
    ("engine.windows", float_of_int (Sim.windows sim));
    ("engine.stalls", over_shards (fun s -> s.Sim.st_stalls));
    ("engine.barrier_wait_s", Sim.barrier_wall sim);
  ]

let trace (w : Spec.workload) ~seed ~untraced_run_s =
  let r =
    Hspan.within "rep" (fun () ->
        let parent = !Hspan.current in
        Rep.run ~phase:(Hspan.add ~parent) w ~seed ~par:w.Spec.par)
  in
  let counters = layer_counters r in
  let get name = List.assoc name counters in
  let run_windowing = windowing r in
  (* nothing below holds [r], so its machine is garbage before the rerun
     and two machines never coexist *)
  let digest = r.Rep.digest and run_s = r.Rep.run_s in
  let mean_diff_words =
    if get "mem.diffs" > 0. then get "mem.diff_words" /. get "mem.diffs" else 1.
  in
  let depth = int_of_float (get "engine.peak_pending") in
  let other_par = Spec.other_par w in
  let other, other_windowing =
    Hspan.within (Printf.sprintf "rerun.par%d" other_par) (fun () ->
        let o = Rep.run w ~seed ~par:other_par in
        (o.Rep.digest, windowing o))
  in
  (* the engine's windowing counters come from whichever run is at par 2 *)
  let windowed = if w.Spec.par >= 2 then run_windowing else other_windowing in
  let micro name f = Hspan.within ("micro." ^ name) f in
  let nprocs = w.Spec.nprocs and cluster = w.Spec.cluster in
  let dispatch = micro "dispatch" (fun () -> Micro.dispatch ~depth) in
  let queue = micro "queue" (fun () -> Micro.queue ~depth) in
  let fiber = micro "fiber_switch" (fun () -> Micro.fiber_switch ~nprocs) in
  let am = micro "am_post" (fun () -> Micro.am_post ~nprocs ~cluster) in
  let lan = micro "lan_send" (fun () -> Micro.lan_send ~nprocs ~cluster) in
  let read = micro "read_hit" (fun () -> Micro.read_hit ()) in
  let cache = micro "cache_access" (fun () -> Micro.cache_access ~cluster) in
  let tlb = micro "tlb_grants" (fun () -> Micro.tlb_grants ()) in
  let diff, apply =
    micro "diff_apply" (fun () ->
        Micro.diff_apply ~dirty:(int_of_float (Float.round mean_diff_words)))
  in
  let span = micro "span" (fun () -> Micro.span ()) in
  let est per (result : Micro.result) = get per *. result.ns *. 1e-9 in
  let ests =
    [
      ("est.dispatch_s", est "engine.events" dispatch);
      ("est.diff_s", est "mem.diffs" diff);
      ("est.am_s", est "am.messages" am);
      ("est.span_s", est "obs.spans" span);
    ]
  in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. ests in
  let metrics =
    counters @ windowed
    @ [
        ("engine.dispatch_ns", dispatch.ns);
        ("engine.dispatch_words", dispatch.words);
        ("engine.queue_ns", queue.ns);
        ("engine.fiber_switch_ns", fiber.ns);
        ("engine.fiber_switch_words", fiber.words);
        ("am.post_ns", am.ns);
        ("am.post_words", am.words);
        ("net.send_ns", lan.ns);
        ("core.read_hit_ns", read.ns);
        ("core.read_hit_words", read.words);
        ("cache.access_ns", cache.ns);
        ("svm.tlb_grants_ns", tlb.ns);
        ("svm.tlb_grants_words", tlb.words);
        ("mem.diff_ns", diff.ns);
        ("mem.apply_ns", apply.ns);
        ("obs.span_ns", span.ns);
        ("obs.span_words", span.words);
      ]
    @ ests
    @ [
        ( "est.unattributed_s",
          run_s -. List.assoc "engine.barrier_wait_s" run_windowing -. attributed );
        ("trace.run_s", run_s);
        ("trace.overhead_s", (if untraced_run_s > 0. then run_s -. untraced_run_s else 0.));
        ("check.par_identical", if digest = other then 1. else 0.);
      ]
  in
  let problems =
    List.filter_map Fun.id
      [
        (if digest <> other then
           Some (Printf.sprintf "simulated results differ between par %d and par %d" w.Spec.par
                   other_par)
         else None);
        (if get "engine.clamped" > 0. then Some "engine clamped late events" else None);
        (if get "serve.coverage" <> 1. then Some "serve coverage below 1.0" else None);
      ]
  in
  print_fields
    [
      ("ok", string_of_bool (problems = []));
      ("error", json_string (String.concat "; " problems));
      ("digest", json_string digest);
      ("metrics", json_metrics metrics);
      ("spans", Hspan.json ());
    ]

(* --- command line ---------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let req key =
    match opt key args with Some v -> v | None -> fail (Printf.sprintf "missing %s" key)
  in
  let workload () = Spec.find (req "--workload") in
  let seed () = int_of_string (req "--seed") in
  try
    match args with
    | "workloads" :: _ ->
      print_fields
        [
          ("ok", "true");
          ( "workloads",
            json_list
              (fun (w : Spec.workload) ->
                Printf.sprintf "{\"name\": %s, \"seeded\": %b}" (json_string w.name) w.seeded)
              Spec.workloads );
        ]
    | "metrics" :: _ ->
      print_fields
        [
          ("ok", "true");
          ( "metrics",
            json_list
              (fun (m : Spec.metric) ->
                Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"kind\": %s}"
                  (json_string m.name) (json_string m.unit) (json_string m.better)
                  (json_string
                     (match m.kind with Spec.End_to_end -> "end_to_end" | Per_layer -> "per_layer")))
              Spec.metrics );
        ]
    | "rep" :: _ ->
      let w = workload () in
      let par = Option.fold ~none:w.Spec.par ~some:int_of_string (opt "--par" args) in
      rep w ~seed:(seed ()) ~par
    | "ref" :: _ ->
      print_fields [ ("ok", "true"); ("ref_s", json_float (Calib.time ())) ]
    | "trace" :: _ ->
      trace (workload ()) ~seed:(seed ())
        ~untraced_run_s:
          (Option.fold ~none:0. ~some:float_of_string (opt "--untraced-run-s" args))
    | _ -> fail "usage: perfbench.exe (workloads | metrics | rep ... | ref | trace ...)"
  with e -> fail (Printexc.to_string e)
