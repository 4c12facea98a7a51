(* Lint the observability exports against their own contracts.

   Validates, with the library's strict JSON parser (no external deps):

     trace_lint --chrome FILE    Chrome trace_event export (--trace)
     trace_lint --spans FILE     span dump, schema mgs-spans-1 (--spans)
     trace_lint --metrics FILE   metrics series, schema mgs-metrics-1
     trace_lint --bench FILE     perf baseline, schema mgs-perf-1
     trace_lint --latency N ...  lower-bound cross-shard handler starts

   Checks: the file is one well-formed JSON value, schemas match,
   timestamps are monotone, every span is balanced (t1 >= t0, parents
   precede children in the same transaction), and Chrome async
   begin/end and flow start/finish events pair up exactly.  Merged
   multi-shard traces get the key-order invariants: 'X' slices appear
   in key order, fire time first (end = ts + dur globally nondecreasing),
   per-shard 'M'/'C' lane metadata is accepted, and with --latency N
   every handler span (label "h.*") that landed on a different SSMP
   than its parent must start at least N cycles after the parent
   opened — a cross-shard message cannot beat the LAN.  ADAPT slices
   (adaptive-coherence regime switches) must chain per page, walk only
   legal regime-lattice edges, and never land inside an invalidation
   epoch.  A metrics file's net.unacked series (a faulted run's
   messages awaiting an ack) is never negative and ends at 0, so a
   partitioned run's file fails.  Any violation prints to stderr and
   the exit status is 1. *)

open Mgs_obs

let errors = ref 0

let errf file fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "trace_lint: %s: %s\n" file msg)
    fmt

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file file =
  match Json.parse (read_file file) with
  | Ok v -> Some v
  | Error e ->
    errf file "invalid JSON: %s" e;
    None

let num file what v =
  match Json.to_number v with
  | Some n -> n
  | None ->
    errf file "%s is not a number" what;
    nan

let lacks file what field = errf file "%s lacks field %S" what field

let get file what obj field =
  match Json.member field obj with
  | Some v -> v
  | None ->
    lacks file what field;
    Json.Null

(* A field that is absent is one error: its type goes unchecked. *)
let get_num file what obj field =
  match Json.member field obj with
  | Some v -> num file (what ^ "." ^ field) v
  | None ->
    lacks file what field;
    nan

let get_str file what obj field =
  match Option.map Json.to_string (Json.member field obj) with
  | Some (Some s) -> s
  | Some None ->
    errf file "%s.%s is not a string" what field;
    ""
  | None ->
    lacks file what field;
    ""

let check_schema file v expected =
  let got = get_str file "top-level object" v "schema" in
  if got <> expected then errf file "schema is %S, expected %S" got expected

let arr file what v =
  match Json.to_list v with
  | Some l -> l
  | None ->
    errf file "%s is not an array" what;
    []

(* --- Chrome trace_event ------------------------------------------- *)

let lint_chrome file =
  match parse_file file with
  | None -> ()
  | Some v ->
    let events = arr file "traceEvents" (get file "top-level object" v "traceEvents") in
    (* (cat, id) -> stack of open async 'b' ts; flow id -> start count *)
    let async : (string * int, float list ref) Hashtbl.t = Hashtbl.create 256 in
    let flow = Hashtbl.create 256 in
    (* Adaptive-coherence contract: ADAPT slices carry the old regime
       code in args.cost and the new one in args.words.  Per page, the
       transitions must chain (each old code equals the previous new
       code; the first event seen for a page seeds the chain, since a
       bounded ring may have evicted its earlier history), every step
       must be a legal lattice edge (0 <-> 1, 0 <-> 2: the specialised
       regimes only reach each other through the default), and none may
       land inside an invalidation epoch (between sv.epoch_start and
       sv.epoch_end for that vpn) — regime switches are epoch-boundary
       decisions. *)
    let in_epoch : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let regime : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let bump tbl key d =
      Hashtbl.replace tbl key (Option.value ~default:0 (Hashtbl.find_opt tbl key) + d)
    in
    (* Stream order is emission order, not timestamp order: a message
       posted now lands in the future (its slice ends at delivery), and
       deliveries are backdated (their slice starts at the post).  What
       IS guaranteed: every slice has nonnegative duration, every async
       pair ends at or after its begin, and — because the 'X' slices
       are written in the order of their events' keys, which sort by
       fire time first (the emission instant), and each slice's
       emission instant lies inside its [ts, ts+dur] interval — no
       slice may end before an earlier-emitted slice started.  Within
       one instant, key order is execution order at any positive
       lookahead; at lookahead 0 an event a zero-delay cross-shard
       event creates may sort before its creator. *)
    let max_ts = ref neg_infinity in
    List.iteri
      (fun i e ->
        let what = Printf.sprintf "traceEvents[%d]" i in
        let ph = get_str file what e "ph" in
        let name = get_str file what e "name" in
        if ph = "X" then begin
          let argv field =
            match Json.member "args" e with
            | Some a -> int_of_float (get_num file (what ^ ".args") a field)
            | None ->
              errf file "%s lacks args" what;
              -1
          in
          match name with
          | "sv.epoch_start" -> Hashtbl.replace in_epoch (argv "vpn") ()
          | "sv.epoch_end" -> Hashtbl.remove in_epoch (argv "vpn")
          | "ADAPT" ->
            let vpn = argv "vpn" in
            let old_r = argv "cost" and new_r = argv "words" in
            if old_r < 0 || old_r > 2 || new_r < 0 || new_r > 2 then
              errf file "%s ADAPT vpn=%d has regime codes %d -> %d outside 0..2" what vpn
                old_r new_r
            else begin
              if old_r = new_r then
                errf file "%s ADAPT vpn=%d is a self-transition (regime %d)" what vpn old_r;
              if old_r <> 0 && new_r <> 0 then
                errf file
                  "%s ADAPT vpn=%d steps %d -> %d directly between specialised \
                   regimes (not a lattice edge)"
                  what vpn old_r new_r
            end;
            (* The event ring is bounded, so an overflowed trace starts
               mid-run: the first ADAPT seen for a page establishes its
               regime (from the old code it carries) rather than being
               checked against the boot default. *)
            (match Hashtbl.find_opt regime vpn with
            | Some prev when old_r <> prev ->
              errf file "%s ADAPT vpn=%d leaves regime %d but the page was in %d" what vpn
                old_r prev
            | _ -> ());
            Hashtbl.replace regime vpn new_r;
            if Hashtbl.mem in_epoch vpn then
              errf file "%s ADAPT vpn=%d lands mid-epoch (inside sv.epoch_start/end)" what
                vpn
          | _ -> ()
        end;
        if ph = "M" then () (* per-shard lane metadata: no timestamp *)
        else begin
        let ts = get_num file what e "ts" in
        if ts < 0. then errf file "%s has negative ts %g" what ts;
        match ph with
        | "X" ->
          let dur = get_num file what e "dur" in
          if dur < 0. then errf file "%s has negative dur %g" what dur;
          if ts +. dur < !max_ts then
            errf file
              "%s ends at %g, before an earlier slice's start %g — the merged \
               stream is not in execution order"
              what (ts +. dur) !max_ts;
          if ts > !max_ts then max_ts := ts
        | "C" -> () (* per-shard engine counter lane *)
        | "b" ->
          let key = (get_str file what e "cat", int_of_float (get_num file what e "id")) in
          let stack =
            match Hashtbl.find_opt async key with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.add async key s;
              s
          in
          stack := ts :: !stack
        | "e" -> (
          let cat = get_str file what e "cat" in
          let id = int_of_float (get_num file what e "id") in
          match Hashtbl.find_opt async (cat, id) with
          | Some ({ contents = t0 :: rest } as stack) ->
            if ts < t0 then
              errf file "%s async end at %g before its begin at %g (cat=%S id=%d)" what
                ts t0 cat id;
            stack := rest
          | _ -> errf file "%s async end without a begin (cat=%S id=%d)" what cat id)
        | "s" | "f" ->
          let id = int_of_float (get_num file what e "id") in
          bump flow id (if ph = "s" then 1 else -1)
        | _ -> errf file "%s has unknown phase %S" what ph
        end)
      events;
    Hashtbl.iter
      (fun (cat, id) stack ->
        let n = List.length !stack in
        if n <> 0 then
          errf file "async events cat=%S id=%d unbalanced: %d begin(s) never ended" cat
            id n)
      async;
    Hashtbl.iter
      (fun id n ->
        if n <> 0 then errf file "flow id=%d unbalanced: %+d start/finish" id n)
      flow

(* --- span dump ----------------------------------------------------- *)

let lint_spans ?latency file =
  match parse_file file with
  | None -> ()
  | Some v ->
    check_schema file v "mgs-spans-1";
    if get_num file "top-level object" v "dropped" < 0. then
      errf file "negative dropped count";
    let spans = arr file "spans" (get file "top-level object" v "spans") in
    (* sid -> (txn, t0, ssmp), for the parent link and latency checks;
       sids are dense *)
    let info = Hashtbl.create 1024 in
    let last_sid = ref (-1) in
    List.iteri
      (fun i s ->
        let what = Printf.sprintf "spans[%d]" i in
        let sid = int_of_float (get_num file what s "sid") in
        let parent = int_of_float (get_num file what s "parent") in
        let txn = int_of_float (get_num file what s "txn") in
        let t0 = int_of_float (get_num file what s "t0") in
        let t1 = int_of_float (get_num file what s "t1") in
        let src_ssmp = int_of_float (get_num file what s "src_ssmp") in
        let dst_ssmp = int_of_float (get_num file what s "dst_ssmp") in
        let label = get_str file what s "label" in
        let ssmp = if dst_ssmp >= 0 then dst_ssmp else max src_ssmp 0 in
        ignore (get_str file what s "engine");
        if sid <= !last_sid then
          errf file "%s sid %d not increasing (previous %d)" what sid !last_sid;
        last_sid := sid;
        if t1 < 0 then errf file "%s (sid %d) never closed (t1=%d)" what sid t1
        else if t1 < t0 then errf file "%s (sid %d) ends before it starts: [%d,%d]" what sid t0 t1;
        if parent < -1 then errf file "%s has parent sid %d" what parent;
        if parent >= sid then
          errf file "%s parent %d does not precede child %d" what parent sid;
        (match Hashtbl.find_opt info parent with
        | Some (ptxn, _, _) when parent >= 0 && ptxn <> txn ->
          errf file "%s crosses transactions: parent %d has txn %d, child has %d" what
            parent ptxn txn
        | Some (_, pt0, pssmp) when parent >= 0 -> (
          (* A handler that landed on a different SSMP than its parent
             is causally downstream of at least one inter-SSMP message,
             so it cannot start sooner than one LAN traversal after the
             parent opened. *)
          match latency with
          | Some lat
            when String.length label > 2
                 && String.sub label 0 2 = "h."
                 && pssmp <> ssmp
                 && t0 < pt0 + lat ->
            errf file
              "%s (%s, sid %d) crossed shards %d -> %d but starts at %d, less than \
               parent t0 %d + lan latency %d"
              what label sid pssmp ssmp t0 pt0 lat
          | _ -> ())
        | None when parent >= 0 ->
          errf file "%s references missing parent sid %d" what parent
        | _ -> ());
        Hashtbl.replace info sid (txn, t0, ssmp))
      spans

(* --- metrics series ------------------------------------------------ *)

let lint_metrics file =
  match parse_file file with
  | None -> ()
  | Some v ->
    check_schema file v "mgs-metrics-1";
    let series = arr file "series" (get file "top-level object" v "series") in
    let ncols = List.length series in
    List.iteri
      (fun i s ->
        if Json.to_string s = None then errf file "series[%d] is not a string" i)
      series;
    let unacked = List.find_index (fun s -> Json.to_string s = Some "net.unacked") series in
    let last_unacked = ref 0. in
    let last_t = ref neg_infinity in
    List.iteri
      (fun i row ->
        let what = Printf.sprintf "samples[%d]" i in
        match Json.to_list row with
        | None -> errf file "%s is not an array" what
        | Some cells ->
          if List.length cells <> ncols + 1 then
            errf file "%s has %d cells, expected %d (time + %d series)" what
              (List.length cells) (ncols + 1) ncols;
          (match cells with
          | t :: _ ->
            let t = num file (what ^ " time") t in
            if t < !last_t then
              errf file "%s time %g not monotone (previous %g)" what t !last_t;
            last_t := t
          | [] -> errf file "%s is empty" what);
          match Option.bind unacked (fun j -> List.nth_opt cells (j + 1)) with
          | Some n ->
            let n = num file (what ^ " net.unacked") n in
            if n < 0. then errf file "%s net.unacked is negative (%g)" what n;
            last_unacked := n
          | None -> ())
      (arr file "samples" (get file "top-level object" v "samples"));
    if !last_unacked <> 0. then
      errf file "net.unacked ends at %g: messages were never acknowledged" !last_unacked;
    List.iteri
      (fun i h ->
        let what = Printf.sprintf "histograms[%d]" i in
        ignore (get_str file what h "name");
        if get_num file what h "count" < 0. then errf file "%s has negative count" what)
      (arr file "histograms" (get file "top-level object" v "histograms"))

(* --- perf baseline (bench/perf.ml output) --------------------------- *)

let lint_bench file =
  match parse_file file with
  | None -> ()
  | Some v ->
    check_schema file v "mgs-perf-1";
    List.iteri
      (fun i r ->
        let what = Printf.sprintf "rows[%d]" i in
        ignore (get_str file what r "app");
        List.iter
          (fun field ->
            let n = get_num file what r field in
            if n < 0. then errf file "%s.%s is negative" what field)
          [
            "nprocs"; "cluster"; "wall_s"; "allocated_mb"; "promoted_mb"; "sim_events";
            "sim_cycles"; "events_per_s";
          ])
      (arr file "rows" (get file "top-level object" v "rows"))

let usage () =
  prerr_endline
    "usage: trace_lint [--latency N] [--chrome FILE | --spans FILE | --metrics FILE | \
     --bench FILE]...\n\
     --metrics fails a net.unacked series that goes negative or does not end at 0:\n\
     a partitioned run ends with messages unacked, so its metrics file fails.";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then usage ();
  let nfiles = ref 0 in
  let latency = ref None in
  let rec go = function
    | [] -> ()
    | "--latency" :: n :: rest ->
      (match int_of_string_opt n with
      | Some lat when lat >= 0 -> latency := Some lat
      | _ -> usage ());
      go rest
    | flag :: file :: rest ->
      incr nfiles;
      (try
         (match flag with
         | "--chrome" -> lint_chrome file
         | "--spans" -> lint_spans ?latency:!latency file
         | "--metrics" -> lint_metrics file
         | "--bench" -> lint_bench file
         | _ -> usage ())
       with Sys_error msg -> errf file "cannot read: %s" msg);
      go rest
    | [ _ ] -> usage ()
  in
  go args;
  if !errors > 0 then begin
    Printf.eprintf "trace_lint: %d error%s in %d file%s\n" !errors
      (if !errors = 1 then "" else "s")
      !nfiles
      (if !nfiles = 1 then "" else "s");
    exit 1
  end
  else Printf.printf "trace_lint: OK (%d file%s)\n" !nfiles (if !nfiles = 1 then "" else "s")
