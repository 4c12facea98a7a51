(* What the benchmark runs and what it reports: the workloads and the
   metric table.  BENCHMARK.json at the repository root must name exactly
   these metrics, with these units and directions, and only workloads
   listed here; `run.py --selftest` checks that it does. *)

type workload = {
  name : string;  (** benchmark workload name *)
  app : string;  (** {!Mgs_harness.Workload} registry key *)
  size : int option;
  iters : int option;
  nprocs : int;
  cluster : int;
  par : int;  (** [par_jobs] of the timed runs *)
  seeded : bool;
      (** the serving workload: the run seed is passed to its [seed] param,
          and every run must record request spans *)
}

let workloads =
  [
    {
      name = "water-p16-c1";
      app = "water";
      size = Some 128;
      iters = Some 2;
      nprocs = 16;
      cluster = 1;
      par = 1;
      seeded = false;
    };
    {
      name = "jacobi-p1024-c16";
      app = "jacobi";
      size = Some 1026;
      iters = Some 2;
      nprocs = 1024;
      cluster = 16;
      par = 2;
      seeded = false;
    };
    {
      name = "kv-p64-c16";
      app = "kv";
      size = None;
      iters = Some 100;
      nprocs = 64;
      cluster = 16;
      par = 1;
      seeded = true;
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) workloads)))

let args w ~seed =
  {
    Mgs_harness.Workload.default_args with
    size = w.size;
    iters = w.iters;
    extra = (if w.seeded then [ ("seed", string_of_int seed) ] else []);
  }

(* The other engine job count, for the traced run's identity check. *)
let other_par w = if w.par = 1 then 2 else 1

(* --- metric table ---------------------------------------------------- *)

type kind = End_to_end | Per_layer

type metric = { name : string; unit : string; better : string; kind : kind }

let e name unit better = { name; unit; better; kind = End_to_end }

let l name unit better = { name; unit; better; kind = Per_layer }

let metrics =
  [
    e "setup_s" "s" "lower";
    e "run_s" "s" "lower";
    e "events_per_s" "1/s" "higher";
    e "alloc_mb" "MiB" "lower";
    e "peak_rss_mb" "MiB" "lower";
    e "sim_cycles" "cycles" "lower";
    l "engine.events" "count" "lower";
    l "engine.xsends" "count" "lower";
    l "engine.windows" "count" "lower";
    l "engine.stalls" "count" "lower";
    l "engine.peak_pending" "count" "lower";
    l "engine.clamped" "count" "lower";
    l "engine.barrier_wait_s" "s" "lower";
    l "engine.dispatch_ns" "ns" "lower";
    l "engine.dispatch_words" "words" "lower";
    l "engine.queue_ns" "ns" "lower";
    l "engine.fiber_switch_ns" "ns" "lower";
    l "engine.fiber_switch_words" "words" "lower";
    l "am.messages" "count" "lower";
    l "am.post_ns" "ns" "lower";
    l "am.post_words" "words" "lower";
    l "net.messages" "count" "lower";
    l "net.words" "words" "lower";
    l "net.send_ns" "ns" "lower";
    l "core.read_faults" "count" "lower";
    l "core.write_faults" "count" "lower";
    l "core.releases" "count" "lower";
    l "core.invalidations" "count" "lower";
    l "core.mgs_share" "ratio" "lower";
    l "core.read_hit_ns" "ns" "lower";
    l "core.read_hit_words" "words" "lower";
    l "cache.accesses" "count" "lower";
    l "cache.misses" "count" "lower";
    l "cache.access_ns" "ns" "lower";
    l "svm.tlb_fills" "count" "lower";
    l "svm.tlb_grants_ns" "ns" "lower";
    l "svm.tlb_grants_words" "words" "lower";
    l "mem.diffs" "count" "lower";
    l "mem.diff_words" "words" "lower";
    l "mem.diff_ns" "ns" "lower";
    l "mem.apply_ns" "ns" "lower";
    l "sync.lock_acquires" "count" "lower";
    l "sync.lock_hit_ratio" "ratio" "higher";
    l "sync.barrier_episodes" "count" "lower";
    l "sync.lock_share" "ratio" "lower";
    l "obs.spans" "count" "lower";
    l "obs.spans_dropped" "count" "lower";
    l "obs.trace_emitted" "count" "lower";
    l "obs.trace_dropped" "count" "lower";
    l "obs.span_ns" "ns" "lower";
    l "obs.span_words" "words" "lower";
    l "serve.requests" "count" "higher";
    l "serve.coverage" "ratio" "higher";
    l "kv_get_p50_cycles" "cycles" "lower";
    l "kv_get_p99_cycles" "cycles" "lower";
    l "kv_put_p50_cycles" "cycles" "lower";
    l "kv_put_p99_cycles" "cycles" "lower";
    l "harness.create_s" "s" "lower";
    l "harness.prepare_s" "s" "lower";
    l "harness.report_s" "s" "lower";
    l "gc.minor_collections" "count" "lower";
    l "gc.major_collections" "count" "lower";
    l "gc.promoted_mb" "MiB" "lower";
    l "est.dispatch_s" "s" "lower";
    l "est.diff_s" "s" "lower";
    l "est.am_s" "s" "lower";
    l "est.span_s" "s" "lower";
    l "est.unattributed_s" "s" "lower";
    l "trace.run_s" "s" "lower";
    l "trace.overhead_s" "s" "lower";
    l "host.ref_s" "s" "lower";
    l "check.par_identical" "bool" "higher";
  ]

let unit_of name =
  match List.find_opt (fun m -> m.name = name) metrics with
  | Some m -> m.unit
  | None -> invalid_arg ("Spec.unit_of: unlisted metric " ^ name)
