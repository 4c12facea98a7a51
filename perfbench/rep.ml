(* One run of a workload through the public registry and Machine API:
   create, prepare, run, then verify and render (quiescence check,
   workload verifier, epilogue).  Every phase is timed; allocation is
   counted over all domains. *)

module Machine = Mgs.Machine
module Report = Mgs.Report

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated by every domain so far: minor + major - promoted,
   from [Gc.quick_stat].  [Gc.allocated_bytes] sees only the calling
   domain and under-counts runs on the windowed engine. *)
let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Peak resident set of this process, from /proc/self/status (VmHWM).
   Unlike [Gc.top_heap_words] it covers fiber stacks and runtime data
   outside the OCaml heap. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

type latency = { get_p50 : int; get_p99 : int; put_p50 : int; put_p99 : int }

type t = {
  machine : Machine.t;
  report : Report.t;
  create_s : float;
  prepare_s : float;
  run_s : float;
  report_s : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  latency : latency;  (** zeros when the workload records no requests *)
  digest : string;  (** hash of every simulated result *)
}

let setup_s r = r.create_s +. r.prepare_s

let alloc_mb r = words_to_mb (alloc_words r.gc1 -. alloc_words r.gc0)

let spans m = Option.map Mgs_obs.Trace.spans (Machine.trace m)

let latency_of = function
  | None -> { get_p50 = 0; get_p99 = 0; put_p50 = 0; put_p99 = 0 }
  | Some rows ->
    let row op =
      List.find_opt (fun r -> r.Mgs_harness.Figures.lr_op = op) rows
      |> Option.fold ~none:(0, 0) ~some:(fun r ->
             (r.Mgs_harness.Figures.lr_p50, r.Mgs_harness.Figures.lr_p99))
    in
    let get_p50, get_p99 = row "kv.get" and put_p50, put_p99 = row "kv.put" in
    { get_p50; get_p99; put_p50; put_p99 }

(* Everything the simulated machine computed, none of what the host
   did: two runs of one configuration must agree on this exactly,
   whatever their engine job count. *)
let digest_of (r : Report.t) ~epilogue =
  let b = Buffer.create 4096 in
  Printf.bprintf b "runtime=%d events=%d lan=%d/%d locks=%d/%d barriers=%d\n" r.runtime
    r.sim_events r.lan_messages r.lan_words r.lock_acquires r.lock_hits r.barrier_episodes;
  Array.iter (Printf.bprintf b "%d ") r.per_proc_total;
  List.iter (fun (tag, n) -> Printf.bprintf b "%s=%d " tag n) r.messages_by_tag;
  let c = r.cache in
  Printf.bprintf b "\ncache=%d/%d/%d/%d/%d/%d\n" c.hits c.local_misses c.remote_misses
    c.misses_2party c.misses_3party c.software_extensions;
  Buffer.add_string b (Format.asprintf "%a" Mgs.Pstats.pp r.pstats);
  Buffer.add_string b epilogue;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [phase name t0 t1] is called after each timed phase; the traced run
   records it as a host span. *)
let run ?(phase = fun _ _ _ -> ()) (w : Spec.workload) ~seed ~par =
  let (module A) = Mgs_harness.Workload.of_name w.app in
  let wl = A.instantiate (Spec.args w ~seed) in
  let cfg =
    Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:w.nprocs ~cluster:w.cluster ()
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let m = Machine.create cfg in
  let t1 = now () in
  phase "create" t0 t1;
  let body, check = wl.Mgs_harness.Sweep.prepare m in
  let t2 = now () in
  phase "prepare" t1 t2;
  let report = Machine.run m body in
  let t3 = now () in
  phase "run" t2 t3;
  if not (Report.completed report) then
    failwith (Format.asprintf "outcome: %a" Report.pp_outcome report.outcome);
  Machine.assert_quiescent m;
  check m;
  let epilogue = A.epilogue m in
  let t4 = now () in
  phase "report" t3 t4;
  let gc1 = Gc.quick_stat () in
  let rows = Option.map Mgs_serve.Tail.rows (spans m) in
  (match spans m with
  | None -> if w.seeded then failwith "the serving workload recorded no spans"
  | Some sp ->
    if Mgs_obs.Span.dropped sp > 0 then
      failwith (Printf.sprintf "%d spans dropped" (Mgs_obs.Span.dropped sp));
    if w.seeded && rows = Some [] then failwith "the serving workload recorded no requests");
  {
    machine = m;
    report;
    create_s = t1 -. t0;
    prepare_s = t2 -. t1;
    run_s = t3 -. t2;
    report_s = t4 -. t3;
    gc0;
    gc1;
    latency = latency_of rows;
    digest = digest_of report ~epilogue;
  }
