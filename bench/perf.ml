(* Tracked perf baseline for the simulator itself: host wall-clock,
   allocation, and simulator throughput (events/s) over a fixed workload
   matrix, written as machine-readable JSON for regression tracking.

     dune exec bench/perf.exe                           # full matrix -> BENCH_sim.json
     dune exec bench/perf.exe -- -o f.json --diff BENCH_sim.json  # `make perf-diff`

   The numbers to watch release-over-release are events_per_s (up is
   good), allocated_mb and promoted_mb (down is good); sim_events and
   sim_cycles are simulation-deterministic, so a change there means the
   simulated machine itself changed, not the host. *)

module Sweep = Mgs_harness.Sweep

type row = {
  app : string;
  nprocs : int;
  cluster : int;
  par : int; (* engine domains; 0 in a baseline row, whose job count is not read *)
  wall_s : float;
  allocated_mb : float;
  promoted_mb : float;
  sim_events : int;
  sim_cycles : int;
  events_per_s : float;
}

(* Bytes allocated by every domain so far: minor + major - promoted
   words from [Gc.quick_stat], as perfbench/rep.ml counts them.
   [Gc.allocated_bytes] sees only the calling domain and under-counts
   the windowed rows. *)
let allocated_bytes (s : Gc.stat) =
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* Bytes that survived a minor collection: what the run retains, which
   allocation alone does not show. *)
let promoted_bytes (s : Gc.stat) = s.Gc.promoted_words *. float_of_int (Sys.word_size / 8)

(* One measured row: wall-clock, and every domain's allocation and
   promotion across [run], which returns the run's simulated events and
   cycles. *)
let timed ?(par = 1) ~app ~nprocs ~cluster run =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let sim_events, sim_cycles = run () in
  let wall = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let mb x = x /. 1048576. in
  {
    app;
    nprocs;
    cluster;
    par;
    wall_s = wall;
    allocated_mb = mb (allocated_bytes s1 -. allocated_bytes s0);
    promoted_mb = mb (promoted_bytes s1 -. promoted_bytes s0);
    sim_events;
    sim_cycles;
    events_per_s = (if wall > 0. then float_of_int sim_events /. wall else 0.);
  }

let measure ?(par = 1) ?(check = true) ?(adapt = false) ~nprocs ~cluster (name, w) =
  timed ~par ~app:name ~nprocs ~cluster (fun () ->
      let cfg = Mgs.Machine.config ~par_jobs:par ~adapt ~nprocs ~cluster () in
      let r = (Sweep.run_point ~check cfg w).Sweep.report in
      (r.Mgs.Report.sim_events, r.Mgs.Report.runtime))

(* Contended-lock microbenchmark rows: one per lock, checked and under
   the same byte-identity gate as the app rows — a sim_events/sim_cycles
   drift here means a lock algorithm's message flow changed. *)
let measure_lock ~cluster ~fibers lock =
  let app = "lock-" ^ Mgs_sync.Locks.name_of lock in
  timed ~app ~nprocs:(max fibers cluster) ~cluster (fun () ->
      let protocol = Mgs.State.Protocol_mgs in
      let pt = Mgs_harness.Micro.lock_point ~lock ~protocol ~cluster ~fibers () in
      (pt.Mgs_harness.Micro.lk_sim_events, pt.Mgs_harness.Micro.lk_runtime))

(* Large-P rows on the windowed engine: P = 64..1024 processors at
   C = 16 and 64, jacobi sized so every processor owns one grid row and
   water capped at 256 molecules (beyond that the pairwise force phase,
   not the engine, dominates).  The invariant checker is off, so the
   rows time the simulation alone; sim_events/sim_cycles still gate the
   diff because results are byte-identical at every job count. *)
let large_rows () =
  List.concat_map
    (fun (nprocs, cluster) ->
      let jacobi =
        ( "jacobi",
          Mgs_apps.Jacobi.workload
            { Mgs_apps.Jacobi.default with Mgs_apps.Jacobi.n = nprocs + 2; iters = 2 } )
      in
      let water =
        ( "water",
          Mgs_apps.Water.workload
            {
              Mgs_apps.Water.default with
              Mgs_apps.Water.nmol = min nprocs 256;
              iters = 1;
            } )
      in
      List.map
        (fun appw -> measure ~par:4 ~check:false ~nprocs ~cluster appw)
        [ jacobi; water ])
    [ (64, 16); (64, 64); (256, 16); (256, 64); (1024, 16); (1024, 64) ]

(* Observability-on rows at P = 256: the same large-P shapes with the
   per-shard trace and metrics sampler installed, still sharded
   across 4 domains, and the merged exports forced so their cost is in
   the row.  Tracks the overhead of cell recording + stamp-order merge;
   rows newer than a baseline diff as "new" and never gate. *)
let traced_rows () =
  let nprocs = 256 in
  let observed (w : Sweep.workload) =
    let prepare m =
      let tr = Mgs.Machine.enable_trace m in
      let mt = Mgs.Machine.enable_metrics m in
      let body, check = w.prepare m in
      let export m =
        check m;
        ignore (String.length (Mgs_obs.Trace.chrome_json tr));
        ignore (String.length (Mgs_obs.Metrics.csv mt))
      in
      (body, export)
    in
    { w with prepare }
  in
  let apps =
    [
      ( "jacobi+obs",
        Mgs_apps.Jacobi.workload
          { Mgs_apps.Jacobi.default with Mgs_apps.Jacobi.n = nprocs + 2; iters = 2 } );
      ( "water+obs",
        Mgs_apps.Water.workload
          { Mgs_apps.Water.default with Mgs_apps.Water.nmol = 256; iters = 1 } );
    ]
  in
  List.concat_map
    (fun cluster ->
      List.map
        (fun (name, w) -> measure ~par:4 ~check:false ~nprocs ~cluster (name, observed w))
        apps)
    [ 16; 64 ]

(* Request-serving rows: the KV tier at P = 64 and 256, all-software
   (C=1) and clustered (C=16), static and adaptive.  Sharded across 4
   domains with the invariant checker off, like the other large-P rows;
   sim_events/sim_cycles still gate the diff because the offered load
   is a pure function of the seed.  One more row runs the repository
   benchmark's shape (P=64 C=16, 100 requests per client) on one
   domain, where promoted_mb gates: kv always records its request
   spans, so that row sees what its span store keeps alive. *)
let kv_rows () =
  measure ~check:false ~nprocs:64 ~cluster:16
    ("kv-par1", Mgs_serve.Kv.workload { Mgs_serve.Kv.default with Mgs_serve.Kv.ops = 100 })
  :: List.concat_map
    (fun nprocs ->
      let w = Mgs_serve.Kv.workload Mgs_serve.Kv.default in
      List.concat_map
        (fun cluster ->
          List.map
            (fun adapt ->
              let name = if adapt then "adapt-kv" else "kv" in
              measure ~par:4 ~check:false ~adapt ~nprocs ~cluster (name, w))
            [ false; true ])
        [ 1; 16 ])
    [ 64; 256 ]

(* Adaptive-coherence rows: the same app matrix with --adapt on.  Their
   sim_cycles gate like every other row, so a policy or classifier
   change that shifts what the adaptive machine simulates is caught
   here, and the delta against the static rows above documents the
   optimisation's effect release-over-release. *)
let adapt_rows ~nprocs ~clusters apps =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun cluster -> measure ~adapt:true ~nprocs ~cluster ("adapt-" ^ name, w))
        clusters)
    apps

let json_of_rows rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"mgs-perf-1\",\n";
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"app\": %S, \"nprocs\": %d, \"cluster\": %d, \"wall_s\": %.6f, \
            \"allocated_mb\": %.3f, \"promoted_mb\": %.3f, \"sim_events\": %d, \
            \"sim_cycles\": %d, \"events_per_s\": %.1f }%s\n"
           r.app r.nprocs r.cluster r.wall_s r.allocated_mb r.promoted_mb r.sim_events
           r.sim_cycles r.events_per_s
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* Read a baseline with the strict JSON parser [trace_lint --bench]
   checks the same file with. *)
let rows_of_file path =
  let module Json = Mgs_obs.Json in
  let fail fmt = Printf.ksprintf (fun msg -> failwith ("perf: " ^ path ^ ": " ^ msg)) fmt in
  let json =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok v -> v
    | Error e -> fail "invalid JSON: %s" e
  in
  let get conv what r key =
    match Option.bind (Json.member key r) conv with
    | Some v -> v
    | None -> fail "missing %s field %S" what key
  in
  let num r key = get Json.to_number "number" r key in
  let int r key = int_of_float (num r key) in
  List.map
    (fun r ->
      {
        app = get Json.to_string "string" r "app";
        nprocs = int r "nprocs";
        cluster = int r "cluster";
        par = 0;
        wall_s = num r "wall_s";
        allocated_mb = num r "allocated_mb";
        promoted_mb = num r "promoted_mb";
        sim_events = int r "sim_events";
        sim_cycles = int r "sim_cycles";
        events_per_s = num r "events_per_s";
      })
    (get Json.to_list "array" json "rows")

(* Compare a fresh run against the committed baseline.  sim_events and
   sim_cycles are simulation-deterministic: any change there is semantic
   drift, not host noise, and fails the gate outright.  Allocation is
   host-deterministic too (all domains, from Gc.quick_stat); >10% growth
   fails.  Promotion gates the same way on one-domain rows, where it
   repeats to within a few percent: it catches a change that keeps
   more alive (a pending event holding its causal history, say)
   without allocating more.
   Wall-clock and events/s are reported but never gate — they depend on
   the host's load. *)
let diff_against ~base rows =
  let pct a b = if b = 0.0 then 0.0 else (a -. b) /. b *. 100.0 in
  (* Allocation is almost deterministic, but the OCaml 5 runtime's
     fiber-stack reuse adds ~2 MB of jitter to rows that only allocate
     a few MB (the lock micros), so the gates need both a relative and
     an absolute trigger. *)
  let grew ~base x = x > base *. 1.1 && x -. base > 3.0 in
  let failures = ref [] in
  let matched = ref 0 in
  let fresh = ref 0 in
  let table =
    List.map
      (fun r ->
        match
          List.find_opt
            (fun b -> b.app = r.app && b.nprocs = r.nprocs && b.cluster = r.cluster)
            base
        with
        | None ->
          (* a row the baseline predates: report it, never gate on it *)
          incr fresh;
          [
            r.app;
            string_of_int r.cluster;
            "-";
            Printf.sprintf "%.1f" r.allocated_mb;
            Printf.sprintf "%.1f" r.promoted_mb;
            "new";
            "-";
          ]
        | Some b ->
          incr matched;
          let id = Printf.sprintf "%s C=%d" r.app r.cluster in
          if r.sim_events <> b.sim_events then
            failures :=
              Printf.sprintf "%s: sim_events %d -> %d (semantic drift)" id b.sim_events
                r.sim_events
              :: !failures;
          if r.sim_cycles <> b.sim_cycles then
            failures :=
              Printf.sprintf "%s: sim_cycles %d -> %d (semantic drift)" id b.sim_cycles
                r.sim_cycles
              :: !failures;
          if grew ~base:b.allocated_mb r.allocated_mb then
            failures :=
              Printf.sprintf "%s: allocated_mb %.1f -> %.1f (> +10%% and > +3 MB)" id
                b.allocated_mb r.allocated_mb
              :: !failures;
          if r.par = 1 && grew ~base:b.promoted_mb r.promoted_mb then
            failures :=
              Printf.sprintf "%s: promoted_mb %.1f -> %.1f (> +10%% and > +3 MB)" id
                b.promoted_mb r.promoted_mb
              :: !failures;
          [
            r.app;
            string_of_int r.cluster;
            Printf.sprintf "%+.1f%%" (pct r.wall_s b.wall_s);
            Printf.sprintf "%.1f -> %.1f (%+.1f%%)" b.allocated_mb r.allocated_mb
              (pct r.allocated_mb b.allocated_mb);
            Printf.sprintf "%.1f -> %.1f (%+.1f%%)" b.promoted_mb r.promoted_mb
              (pct r.promoted_mb b.promoted_mb);
            (if r.sim_events = b.sim_events && r.sim_cycles = b.sim_cycles then "same"
             else "CHANGED");
            Printf.sprintf "%+.1f%%" (pct r.events_per_s b.events_per_s);
          ])
      rows
  in
  Mgs_util.Tableprint.print
    ~header:[ "app"; "C"; "wall"; "alloc (MB)"; "promoted (MB)"; "sim"; "events/s" ]
    ~rows:table;
  if !matched = 0 then begin
    prerr_endline "perf: --diff: no baseline rows match this run's matrix";
    exit 2
  end;
  if !fresh > 0 then
    Printf.printf "perf-diff: %d new row%s not in the baseline (reported, not gated)\n"
      !fresh
      (if !fresh = 1 then "" else "s");
  match List.rev !failures with
  | [] -> Printf.printf "perf-diff: OK (%d rows vs baseline)\n" !matched
  | fs ->
    List.iter (fun f -> Printf.eprintf "perf-diff FAIL: %s\n" f) fs;
    exit 1

let () =
  let out = ref "BENCH_sim.json" in
  let diff = ref None in
  let rec parse = function
    | [] -> ()
    | ("-o" | "--out") :: f :: rest ->
      out := f;
      parse rest
    | [ ("-o" | "--out") ] ->
      prerr_endline "perf: -o/--out expects a file name";
      exit 2
    | "--diff" :: f :: rest ->
      diff := Some f;
      parse rest
    | [ "--diff" ] ->
      prerr_endline "perf: --diff expects a baseline JSON file";
      exit 2
    | arg :: _ ->
      Printf.eprintf "perf: unknown argument %S (known: -o FILE, --diff FILE)\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let apps =
    [
      ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.default);
      ("water", Mgs_apps.Water.workload Mgs_apps.Water.default);
      ("tsp", Mgs_apps.Tsp.workload Mgs_apps.Tsp.default);
    ]
  in
  let nprocs = 16 in
  let clusters = [ 1; 4; 16 ] in
  let rows =
    List.concat_map
      (fun appw -> List.map (fun cluster -> measure ~nprocs ~cluster appw) clusters)
      apps
  in
  let lock_rows =
    List.concat_map
      (fun lock ->
        List.map (fun cluster -> measure_lock ~cluster ~fibers:16 lock) clusters)
      Mgs_sync.Locks.all
  in
  let rows =
    rows @ lock_rows
    @ adapt_rows ~nprocs ~clusters apps
    @ large_rows () @ traced_rows () @ kv_rows ()
  in
  Mgs_util.Tableprint.print
    ~header:
      [ "app"; "C"; "wall (s)"; "alloc (MB)"; "promoted (MB)"; "sim events"; "events/s" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.app;
             string_of_int r.cluster;
             Printf.sprintf "%.3f" r.wall_s;
             Printf.sprintf "%.1f" r.allocated_mb;
             Printf.sprintf "%.1f" r.promoted_mb;
             string_of_int r.sim_events;
             Printf.sprintf "%.0f" r.events_per_s;
           ])
         rows);
  let oc = open_out !out in
  output_string oc (json_of_rows rows);
  close_out oc;
  Printf.printf "wrote %s (%d measurements)\n" !out (List.length rows);
  match !diff with None -> () | Some base -> diff_against ~base:(rows_of_file base) rows
