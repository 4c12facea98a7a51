(* Tests for the observability subsystem: the power-of-two latency
   histograms, the event trace with its Chrome export, the row store,
   the online invariant checker (including deliberately corrupted state
   it must flag), and the metrics sampler. *)

module Hist = Mgs_obs.Hist
module Event = Mgs_obs.Event
module Trace = Mgs_obs.Trace
module Span = Mgs_obs.Span
module Metrics = Mgs_obs.Metrics
module Json = Mgs_obs.Json

let contains haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec go i = i + n <= l && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- histogram -------------------------------------------------------- *)

let test_hist_buckets () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0; 1; 5; 5; 1000; -3 ];
  Alcotest.(check int) "count" 6 (Hist.count h);
  (* -3 clamps to 0 *)
  Alcotest.(check int) "sum" (0 + 1 + 5 + 5 + 1000 + 0) (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 1000 (Hist.max_value h);
  let buckets = Hist.buckets h in
  Alcotest.(check (list (triple int int int)))
    "power-of-two buckets"
    [ (0, 0, 2); (1, 1, 1); (4, 7, 2); (512, 1023, 1) ]
    buckets

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check (float 0.)) "mean" 0.0 (Hist.mean h);
  Alcotest.(check (list (triple int int int))) "no buckets" [] (Hist.buckets h)

(* --- trace ------------------------------------------------------------ *)

let emit ?(tag = "t") ?(dur = 0) tr time =
  Trace.emit tr ~time ~engine:Event.Network ~tag ~vpn:(-1) ~src:(-1) ~dst:(-1)
    ~src_ssmp:(-1) ~dst_ssmp:(-1) ~words:0 ~cost:0 ~dur ~txn:(-1)

let test_trace_bounded () =
  let tr = Trace.create ~capacity:2 () in
  emit tr 1;
  emit tr 2;
  emit tr 3;
  Alcotest.(check int) "emitted" 3 (Trace.emitted tr);
  Alcotest.(check int) "retained" 2 (Trace.retained tr);
  Alcotest.(check int) "dropped" 1 (Trace.dropped tr);
  Alcotest.(check (list int)) "newest retained" [ 2; 3 ]
    (List.map (fun (e : Event.t) -> e.Event.time) (Trace.events tr))

let test_trace_hist () =
  let tr = Trace.create () in
  emit ~tag:"a" ~dur:10 tr 1;
  emit ~tag:"a" ~dur:20 tr 2;
  emit ~tag:"b" ~dur:5 tr 3;
  (match Trace.hist tr "a" with
  | None -> Alcotest.fail "histogram for tag a missing"
  | Some h ->
    Alcotest.(check int) "per-tag count" 2 (Hist.count h);
    Alcotest.(check int) "per-tag sum of durations" 30 (Hist.sum h));
  Alcotest.(check int) "two tags" 2 (List.length (Trace.histograms tr))

let test_trace_chrome_json () =
  let tr = Trace.create () in
  Trace.emit tr ~time:150 ~engine:Event.Server ~tag:"RREQ \"x\"" ~vpn:7 ~src:1 ~dst:2
    ~src_ssmp:0 ~dst_ssmp:1 ~words:256 ~cost:40 ~dur:50 ~txn:(-1);
  let json = Trace.chrome_json tr in
  let contains needle =
    let n = String.length needle and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "complete slice" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "slice starts at time - dur" true (contains "\"ts\":100");
  Alcotest.(check bool) "duration" true (contains "\"dur\":50");
  Alcotest.(check bool) "pid is destination SSMP" true (contains "\"pid\":1");
  Alcotest.(check bool) "quotes escaped" true (contains "RREQ \\\"x\\\"");
  Alcotest.(check bool) "page in args" true (contains "\"vpn\":7")

(* A ring that overflows must say so loudly: a decomposition computed
   from a lossy window is quietly wrong otherwise. *)
let test_trace_overflow_warning () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    emit tr i
  done;
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  let warning = Format.asprintf "%a" Trace.pp_overflow_warning tr in
  Alcotest.(check bool) "overflow warning present" true (contains warning "WARNING");
  Alcotest.(check bool) "warning counts the loss" true (contains warning "6 of 10");
  let summary = Format.asprintf "%a" Trace.pp_summary tr in
  Alcotest.(check bool) "summary leads with the warning" true (contains summary "WARNING");
  (* and a clean trace stays quiet *)
  let quiet = Trace.create ~capacity:64 () in
  emit quiet 1;
  Alcotest.(check string) "no warning without drops" ""
    (Format.asprintf "%a" Trace.pp_overflow_warning quiet)

(* Regression: tags with quotes, backslashes, control characters, and
   non-ASCII bytes must still yield JSON the strict parser accepts. *)
let test_chrome_json_escaping_strict () =
  let tr = Trace.create () in
  let nasty =
    [ "quote\"tag"; "back\\slash"; "new\nline"; "tab\ttag"; "ctl\x01"; "del\x7f"; "hi\xff" ]
  in
  List.iteri (fun i tag -> emit ~tag tr (10 * (i + 1))) nasty;
  (* spans with the same hostile labels ride in the chrome export too *)
  let sp = Trace.spans tr in
  List.iter
    (fun label ->
      let c =
        Span.open_span sp ~parent:Span.none ~time:0 ~label ~engine:Event.Network ()
      in
      Span.close sp c ~time:5)
    nasty;
  let json = Trace.chrome_json tr in
  String.iter
    (fun ch -> if Char.code ch > 0x7f then Alcotest.fail "non-ASCII byte in export")
    json;
  (match Json.parse json with
  | Error e -> Alcotest.fail ("chrome export rejected by strict parser: " ^ e)
  | Ok v -> (
    match Json.member "traceEvents" v with
    | Some (Json.Arr events) ->
      (* 7 complete slices + per span one b/e pair (roots have no flows) *)
      Alcotest.(check int) "all events survived escaping" (7 + (2 * 7))
        (List.length events)
    | _ -> Alcotest.fail "traceEvents missing"));
  match Json.parse (Span.json sp) with
  | Error e -> Alcotest.fail ("span export rejected by strict parser: " ^ e)
  | Ok v ->
    Alcotest.(check (option string)) "span schema" (Some "mgs-spans-1")
      (Option.bind (Json.member "schema" v) Json.to_string)

(* --- spans ------------------------------------------------------------ *)

let test_span_basic () =
  let sp = Span.create () in
  let root =
    Span.open_span sp ~parent:Span.none ~time:100 ~label:"fault" ~engine:Event.Local_client
      ~vpn:3 ()
  in
  Alcotest.(check int) "root mints txn 0" 0 (Span.txn_of root);
  let child =
    Span.open_span sp ~parent:root ~time:110 ~label:"h.RREQ" ~engine:Event.Server ()
  in
  Alcotest.(check int) "child inherits txn" 0 (Span.txn_of child);
  Alcotest.(check int) "two open" 2 (Span.open_count sp);
  Alcotest.(check (list string)) "open labels" [ "fault"; "h.RREQ" ] (Span.open_labels sp);
  Span.close sp child ~time:150;
  Span.close sp root ~time:200;
  Alcotest.(check int) "balanced" 0 (Span.open_count sp);
  Span.close sp root ~time:999;
  (* idempotent: t1 keeps its first value *)
  let t1s = ref [] in
  Span.iter sp (fun s -> t1s := s.Span.t1 :: !t1s);
  Alcotest.(check (list int)) "closes kept first time" [ 200; 150 ] (List.rev !t1s);
  Span.close sp Span.none ~time:1;
  let second =
    Span.open_span sp ~parent:Span.none ~time:300 ~label:"release"
      ~engine:Event.Local_client ()
  in
  Alcotest.(check int) "fresh root mints the next txn" 1 (Span.txn_of second);
  Span.close sp second ~time:310;
  Alcotest.(check int) "txns minted" 2 (Span.txns sp)

let test_span_overflow_sentinel () =
  let sp = Span.create ~capacity:2 () in
  let a =
    Span.open_span sp ~parent:Span.none ~time:0 ~label:"fault" ~engine:Event.Local_client ()
  in
  let b = Span.open_span sp ~parent:a ~time:1 ~label:"h.RREQ" ~engine:Event.Server () in
  let c = Span.open_span sp ~parent:a ~time:2 ~label:"net.wire" ~engine:Event.Network () in
  Alcotest.(check int) "store capped" 2 (Span.count sp);
  Alcotest.(check int) "overflow counted" 1 (Span.dropped sp);
  Alcotest.(check bool) "sentinel sid is negative" true (Span.sid_of c < 0);
  Alcotest.(check int) "sentinel keeps threading the txn" (Span.txn_of a) (Span.txn_of c);
  Span.close sp c ~time:9;
  Alcotest.(check int) "sentinel close is a no-op" 2 (Span.open_count sp);
  (* a child opened under the sentinel stays in the transaction, with
     the unrecorded parent sanitized to "root" *)
  let sp2 = Span.create ~capacity:8 () in
  for _ = 1 to 7 do
    ignore (Span.mint_txn sp)
  done;
  let e =
    Span.open_span sp ~parent:Span.none ~time:0 ~label:"fault" ~engine:Event.Local_client ()
  in
  Alcotest.(check int) "a dropped root still mints" 8 (Span.txn_of e);
  let d = Span.open_span sp2 ~parent:e ~time:0 ~label:"net.dma" ~engine:Event.Network () in
  Alcotest.(check int) "txn inherited through sentinel" 8 (Span.txn_of d);
  Span.iter sp2 (fun s -> Alcotest.(check int) "parent sanitized" (-1) s.Span.parent);
  Span.close sp b ~time:3;
  Span.close sp a ~time:4

(* Synthetic remote fault with overlapping children: every instant must
   be charged to exactly one component, components + residual = e2e. *)
let test_span_breakdown_attribution () =
  let sp = Span.create () in
  let root =
    Span.open_span sp ~parent:Span.none ~time:0 ~label:"fault" ~engine:Event.Local_client ()
  in
  let kid label t0 t1 =
    let c =
      Span.open_span sp ~parent:root ~time:t0 ~label
        ~engine:(Span.engine_of_label label) ()
    in
    Span.close sp c ~time:t1
  in
  kid "net.wire" 0 10;
  kid "h.RREQ" 10 40;
  kid "sv.queue" 20 50;
  kid "net.dma" 40 60;
  kid "rc.inv" 55 70;
  Span.close sp root ~time:100;
  (* a sync transaction and a local fault must not enter the breakdown *)
  let l = Span.open_span sp ~parent:Span.none ~time:0 ~label:"sync.lock" ~engine:Event.Sync () in
  Span.close sp l ~time:50;
  let lf =
    Span.open_span sp ~parent:Span.none ~time:0 ~label:"fault" ~engine:Event.Local_client ()
  in
  Span.close sp lf ~time:5;
  let b = Span.fault_breakdown sp in
  Alcotest.(check int) "one remote fault" 1 b.Span.faults;
  Alcotest.(check int) "e2e" 100 b.Span.e2e;
  Alcotest.(check int) "wire" 10 b.Span.wire;
  Alcotest.(check int) "server wins over queue" 30 b.Span.server;
  Alcotest.(check int) "dma wins over queue and remote" 20 b.Span.dma;
  Alcotest.(check int) "remote" 10 b.Span.remote;
  Alcotest.(check int) "queue fully shadowed" 0 b.Span.queue;
  Alcotest.(check int) "local" 0 b.Span.local;
  Alcotest.(check int) "residual is the uncovered tail" 30 b.Span.residual;
  Alcotest.(check int) "components + residual = e2e" b.Span.e2e
    (b.Span.local + b.Span.wire + b.Span.dma + b.Span.server + b.Span.remote + b.Span.queue
   + b.Span.residual);
  Alcotest.(check (float 1e-9)) "coverage" 0.7 (Span.coverage b)

(* --- the row store ------------------------------------------------------ *)

(* Minor words and direct major words (major minus promoted) that [f]
   allocates, less what an empty call costs. *)
let alloc_of f =
  let measure f =
    let _, p0, j0 = Gc.counters () in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    let _, p1, j1 = Gc.counters () in
    (m1 -. m0, j1 -. p1 -. (j0 -. p0))
  in
  let m0, j0 = measure ignore in
  let m, j = measure f in
  (int_of_float (m -. m0), int_of_float (j -. j0))

let rounds = 10_000

let record tr ~from () =
  let sp = Trace.spans tr in
  for i = from to from + rounds - 1 do
    Trace.emit tr ~time:i ~engine:Event.Network ~tag:"t" ~vpn:i ~src:0 ~dst:1 ~src_ssmp:0
      ~dst_ssmp:1 ~words:2 ~cost:3 ~dur:(i land 15) ~txn:(-1);
    let c =
      Span.open_span_x sp ~parent:Span.none ~time:i ~label:"s" ~engine:Event.Network
        ~vpn:(-1) ~src:0 ~dst:1 ~src_ssmp:0 ~dst_ssmp:1 ~words:0
    in
    Span.close sp c ~time:(i + 1)
  done

(* Words of the chunks that rows [lo, hi) of one store open, given
   twelve ints a row (an event's and a span's fields) and [stamped]
   stamp chunks of three ints a row: the only allocation recording may
   do. *)
let chunk_words ~lo ~hi ~stamped =
  let rows = Mgs_obs.Rows.chunk_rows in
  let n = ((hi - 1) / rows) - ((lo - 1) / rows) in
  n
  * ((rows * 12)
    + 1
    + if stamped then (rows * Mgs_obs.Rows.stamp_width) + 1 else 0)

(* Emitting and opening/closing spans allocate nothing once a row's
   chunk exists; a two-cell store copies the running event's key into
   its stamp chunk. *)
let test_recording_allocates_nothing () =
  let one = Trace.create ~capacity:(4 * rounds) ~span_capacity:(4 * rounds) () in
  record one ~from:0 ();
  let minor, major = alloc_of (record one ~from:rounds) in
  Alcotest.(check int) "one cell: no minor words" 0 minor;
  Alcotest.(check int) "one cell: major words are the chunks filled"
    (2 * chunk_words ~lo:rounds ~hi:(2 * rounds) ~stamped:false)
    major;
  let two = Trace.create ~cells:2 ~capacity:(8 * rounds) ~span_capacity:(8 * rounds) () in
  let sim = Mgs_engine.Sim.create () in
  Mgs_engine.Sim.make_sharded sim ~nshards:2 ~lookahead:10;
  let got = ref (-1, -1) in
  Mgs_engine.Sim.at_shard sim ~shard:1 5 (fun () ->
      record two ~from:0 ();
      got := alloc_of (record two ~from:rounds));
  ignore (Mgs_engine.Sim.run sim ());
  Alcotest.(check int) "two cells: no minor words" 0 (fst !got);
  Alcotest.(check int) "two cells: major words are the chunks filled"
    (2 * chunk_words ~lo:rounds ~hi:(2 * rounds) ~stamped:true)
    (snd !got);
  Alcotest.(check int) "all rows kept" (2 * rounds) (Trace.retained two)

(* A host stamp sorts after every event stamp of its time, whatever
   the order of recording: host emissions made before the run merge
   after the events that fire at their time, the last of which was
   scheduled at that time by an event of that time, so it carries the
   largest [sched] an event can. *)
let test_host_stamp_last () =
  let tr = Trace.create ~cells:2 () in
  let emit tag time =
    Trace.emit tr ~time ~engine:Event.Network ~tag ~vpn:(-1) ~src:0 ~dst:0 ~src_ssmp:0
      ~dst_ssmp:0 ~words:0 ~cost:0 ~dur:0 ~txn:(-1)
  in
  let sim = Mgs_engine.Sim.create () in
  Mgs_engine.Sim.make_sharded sim ~nshards:2 ~lookahead:10;
  emit "host-11" 11;
  emit "host-10" 10;
  emit "host-9" 9;
  Mgs_engine.Sim.at_shard sim ~shard:0 10 (fun () -> emit "event-0" 10);
  Mgs_engine.Sim.at_shard sim ~shard:1 10 (fun () ->
      emit "event-1" 10;
      Mgs_engine.Sim.at sim 10 (fun () -> emit "event-1-child" 10));
  ignore (Mgs_engine.Sim.run sim ());
  emit "host-10-after" 10;
  Alcotest.(check (list string)) "merged order"
    [ "host-9"; "event-0"; "event-1"; "event-1-child"; "host-10"; "host-10-after"; "host-11" ]
    (List.map (fun (e : Event.t) -> e.tag) (Trace.events tr))

(* A stamp packs [src] above [seq] in one int, which must sort like the
   pair: shard ids up to the limit, and counters on both sides of
   powers of two up to the largest that fits.  Out-of-range values are
   refused, and so is a simulator with more shards than fit. *)
let test_packed_order () =
  let module Q = Mgs_engine.Shardq in
  let srcs = [ 0; 1; Q.max_shards - 2; Q.max_shards - 1 ] in
  let seqs =
    [ 0; Q.max_seq - 1; Q.max_seq ]
    @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]) [ 1; 20; 41 ]
  in
  let pairs = List.concat_map (fun src -> List.map (fun seq -> (src, seq)) seqs) srcs in
  let pack (src, seq) = Q.pack ~src ~seq in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Int.compare (pack a) (pack b) <> compare a b then
            Alcotest.failf "(%d, %d) vs (%d, %d) sorts differently packed" (fst a) (snd a)
              (fst b) (snd b))
        pairs)
    pairs;
  List.iter
    (fun (src, seq) ->
      Alcotest.check_raises
        (Printf.sprintf "pack (%d, %d)" src seq)
        (Invalid_argument "Shardq.pack: src or seq out of range")
        (fun () -> ignore (Q.pack ~src ~seq : int)))
    [ (Q.max_shards, 0); (-1, 0); (0, Q.max_seq + 1); (0, -1) ];
  Alcotest.check_raises "too many shards"
    (Invalid_argument "Sim.make_sharded: nshards too large") (fun () ->
      Mgs_engine.Sim.make_sharded (Mgs_engine.Sim.create ()) ~nshards:(Q.max_shards + 1)
        ~lookahead:10)

(* Both stores against a naive list model, across chunk boundaries.  A
   plan is a list of events, each on one cell, recording one to three
   rows; event [e] fires at time [e], so execution order is plan order.
   Row [i] emits a trace event and opens a span whose parent is the row
   [back] before it ([back = 0]: a root); three rows in four close
   their span.  The trace keeps each cell's newest rows, the span store
   each cell's first ones. *)
type plan = { cap : int; ncells : int; evs : (int * int list) list }

let gen_plan =
  let open QCheck2.Gen in
  let* cap = oneofl [ 1; 63; 64; 1023; 1024; 1025; 2500 ] in
  let* ncells = int_range 1 4 in
  let* nrows = int_bound (3 * cap) in
  let* evs =
    list_size
      (pure ((nrows + 1) / 2))
      (pair (int_bound (ncells - 1)) (list_size (int_range 1 3) (int_bound 4)))
  in
  pure { cap; ncells; evs }

let print_plan p =
  Printf.sprintf "cap=%d cells=%d events=%d" p.cap p.ncells (List.length p.evs)

(* A model row: index, cell, event, parent row (-1: none), and position
   among its cell's rows. *)
type mrow = { i : int; cell : int; ev : int; par : int; local : int }

let model_rows { ncells; evs; _ } =
  let per_cell = Array.make ncells 0 and rows = ref [] and i = ref 0 in
  List.iteri
    (fun ev (cell, backs) ->
      List.iter
        (fun back ->
          let par = if back = 0 || back > !i then -1 else !i - back in
          rows := { i = !i; cell; ev; par; local = per_cell.(cell) } :: !rows;
          per_cell.(cell) <- per_cell.(cell) + 1;
          incr i)
        backs)
    evs;
  (Array.of_list (List.rev !rows), per_cell)

let prop_rows_model =
  QCheck2.Test.make ~name:"trace and span stores match a list model" ~count:40
    ~print:print_plan gen_plan (fun plan ->
      let { cap; ncells; evs } = plan in
      let rows, per_cell = model_rows plan in
      let n = Array.length rows in
      let tag r = string_of_int (r.i mod 5) and label r = string_of_int (r.i mod 3) in
      let t1 r = if r.i mod 4 = 3 then -1 else r.ev + (r.i mod 5) in
      (* the run: each event records its rows on its cell's shard *)
      let tr = Trace.create ~capacity:cap ~span_capacity:cap ~cells:ncells () in
      let sp = Trace.spans tr in
      let ctxs = Array.make n Span.none in
      let record r =
        Trace.emit tr ~time:r.ev ~engine:Event.Server ~tag:(tag r) ~vpn:r.i ~src:r.cell
          ~dst:(r.i mod 3) ~src_ssmp:r.cell ~dst_ssmp:(-1) ~words:(r.i mod 7) ~cost:1
          ~dur:(r.i mod 11) ~txn:(-1);
        let parent = if r.par < 0 then Span.none else ctxs.(r.par) in
        let c =
          Span.open_span sp ~parent ~time:r.ev ~label:(label r) ~engine:Event.Sync
            ~vpn:r.i ()
        in
        ctxs.(r.i) <- c;
        if t1 r >= 0 then Span.close sp c ~time:(t1 r)
      in
      let by_ev = Array.make (List.length evs) [] in
      Array.iter (fun r -> by_ev.(r.ev) <- by_ev.(r.ev) @ [ r ]) rows;
      let sim = Mgs_engine.Sim.create () in
      if ncells > 1 then Mgs_engine.Sim.make_sharded sim ~nshards:ncells ~lookahead:1000;
      Array.iteri
        (fun e rs ->
          Mgs_engine.Sim.at_shard sim ~shard:(List.hd rs).cell e (fun () ->
              List.iter record rs))
        by_ev;
      ignore (Mgs_engine.Sim.run sim ());
      (* the model *)
      let ccap = max (min cap 64) ((cap + ncells - 1) / ncells) in
      let in_trace r = r.local >= per_cell.(r.cell) - ccap in
      let in_spans r = r.local < ccap in
      let kept = Array.fold_left (fun a k -> a + min k ccap) 0 per_cell in
      let all = Array.to_list rows in
      let events =
        List.map
          (fun r -> (r.ev, tag r, r.i, r.cell, r.i mod 3, r.i mod 7, r.i mod 11))
          (List.filter in_trace all)
      in
      (* a root mints its cell's next transaction; a child inherits *)
      let mints = Array.make ncells 0 and txn = Array.make n 0 in
      Array.iter
        (fun r ->
          if r.par >= 0 then txn.(r.i) <- txn.(r.par)
          else begin
            txn.(r.i) <- (mints.(r.cell) * ncells) + r.cell;
            mints.(r.cell) <- mints.(r.cell) + 1
          end)
        rows;
      (* one cell exports raw IDs; several renumber the kept spans densely *)
      let kept_rows = List.filter in_spans all in
      let dense = Array.make n (-1) and dense_txn = Hashtbl.create 16 in
      List.iteri
        (fun d r ->
          dense.(r.i) <- d;
          if not (Hashtbl.mem dense_txn txn.(r.i)) then
            Hashtbl.add dense_txn txn.(r.i) (Hashtbl.length dense_txn))
        kept_rows;
      let spans =
        List.map
          (fun r ->
            let has_parent = r.par >= 0 && in_spans rows.(r.par) in
            let sid, parent, tx =
              if ncells = 1 then
                (r.local, (if has_parent then rows.(r.par).local else -1), txn.(r.i))
              else
                ( dense.(r.i),
                  (if has_parent then dense.(r.par) else -1),
                  Hashtbl.find dense_txn txn.(r.i) )
            in
            (sid, parent, tx, label r, r.ev, t1 r, r.i))
          kept_rows
      in
      let got_spans = ref [] in
      Span.iter sp (fun s ->
          got_spans := (s.sid, s.parent, s.txn, s.label, s.t0, s.t1, s.vpn) :: !got_spans);
      let folded =
        Span.fold_unordered sp ~init:[] (fun acc ~label ~parent ~t0 ~t1 ->
            (label, parent >= 0, t0, t1) :: acc)
      in
      let expect_fold =
        List.map (fun (_, p, _, l, t0, t1, _) -> (l, p >= 0, t0, t1)) spans
      in
      let ctx_ok r =
        Span.txn_of ctxs.(r.i) = txn.(r.i)
        && Span.sid_of ctxs.(r.i) = if in_spans r then (r.local * ncells) + r.cell else -2
      in
      Trace.emitted tr = n
      && Trace.retained tr = kept
      && Trace.dropped tr = n - kept
      && List.map
           (fun (e : Event.t) -> (e.time, e.tag, e.vpn, e.src, e.dst, e.words, e.dur))
           (Trace.events tr)
         = events
      && Span.count sp = kept
      && Span.dropped sp = n - kept
      && Span.txns sp = Array.fold_left ( + ) 0 mints
      && Span.open_count sp = List.length (List.filter (fun r -> t1 r < 0) kept_rows)
      && List.rev !got_spans = spans
      && List.sort compare folded = List.sort compare expect_fold
      && Array.for_all ctx_ok rows)

(* --- exports pinned to the pre-row-store implementation ------------------ *)

let run_exports ~protocol w =
  let cfg =
    Mgs.Machine.config ~lan_latency:1000 ~par_jobs:1
      ~protocol:(Mgs.Protocol.proto_of_name protocol) ~nprocs:8 ~cluster:2 ()
  in
  let m = Mgs.Machine.create cfg in
  let tr = Mgs.Machine.enable_trace m in
  let mt = Mgs.Machine.enable_metrics m in
  let body, check = w.Mgs_harness.Sweep.prepare m in
  ignore (Mgs.Machine.run m body);
  Mgs.Machine.assert_quiescent m;
  check m;
  (tr, mt)

(* MD5s of each export from the implementation that kept [Event.t]
   records in a ring and spans in doubling arrays.  [test_obs_par] only
   compares exports across job counts; these catch a change that alters
   every job count's export the same way. *)
let test_exports_pinned () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let check_run name ~protocol w sums =
    let tr, mt = run_exports ~protocol w in
    List.iter2
      (fun (what, out) sum -> Alcotest.(check string) (name ^ " " ^ what) sum (md5 out))
      [
        ("chrome", Trace.chrome_json tr);
        ("spans", Span.json (Trace.spans tr));
        ("summary", Format.asprintf "%a" Trace.pp_summary tr);
        ("metrics", Metrics.csv mt);
      ]
      sums
  in
  check_run "jacobi/mgs" ~protocol:"mgs" (Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny)
    [
      "63be9c63605b07e521aa57f43df59ae9"; "49f126518ed7ea084b3efa06bd072dc5";
      "798372c237eeb1f4bf060b4ec10ebd20"; "6845a2e387ceb6f1d0f7a30e71e7ca27";
    ];
  check_run "water/hlrc" ~protocol:"hlrc" (Mgs_apps.Water.workload Mgs_apps.Water.tiny)
    [
      "3d94e8b16a352ad6cde41172ffe956f7"; "1afbae58caba2a42614fd13aad00a60f";
      "c899bc819d6ca6b79a598f557acd09e2"; "0d3b25cb62a18a3c1bf73251804745a7";
    ];
  let tr, mt = run_exports ~protocol:"mgs" (Mgs_serve.Kv.workload Mgs_serve.Kv.tiny) in
  Alcotest.(check string) "kv tail table" "86b4037081116b3ac70dde08eea33f93"
    (md5 (Mgs_serve.Tail.table (Trace.spans tr)));
  (* kv's serve.* columns, pinned from when they were metric counters *)
  Alcotest.(check string) "kv metrics" "5f6f069a32821066090dea605676a8af"
    (md5 (Metrics.csv mt))

(* --- metrics ----------------------------------------------------------- *)

let test_metrics_registry_and_sampler () =
  let mt = Metrics.create ~interval:10 () in
  Alcotest.(check int) "interval" 10 (Metrics.interval mt);
  let msgs = ref 0 in
  Metrics.probe_cell mt "msgs" ~labels:[ ("engine", "server") ] (fun _cell -> !msgs);
  let depth = ref 0 in
  Metrics.probe_cell mt "depth" (fun _cell -> !depth);
  let live = ref 0 in
  Metrics.probe_cell mt "live" (fun _cell -> !live);
  msgs := 5;
  depth := 2;
  live := 7;
  Metrics.sample mt ~now:0;
  Metrics.on_event mt ~cell:0 ~now:5;
  (* inside boundary 0's interval: no new row *)
  depth := -3;
  Metrics.on_event mt ~cell:0 ~now:15;
  (* boundary 1 crossed: one row back-filled at t=10 *)
  Alcotest.(check int) "events snapshot the boundary grid" 2 (Metrics.sample_count mt);
  Alcotest.(check (list string)) "columns in registration order"
    [ "msgs{engine=server}"; "depth"; "live" ] (Metrics.columns mt);
  (match Metrics.samples mt with
  | [ (0, row0); (10, row1) ] ->
    Alcotest.(check (array int)) "probes polled at t=0" [| 5; 2; 7 |] row0;
    Alcotest.(check (array int)) "and at the crossed boundary" [| 5; -3; 7 |] row1
  | _ -> Alcotest.fail "expected samples at t=0 and t=10");
  Alcotest.check_raises "duplicate series refused"
    (Invalid_argument "Metrics: duplicate series depth") (fun () ->
      Metrics.probe_cell mt "depth" (fun _ -> 0));
  Alcotest.check_raises "registration is frozen after first sample"
    (Invalid_argument "Metrics: cannot register late after sampling started") (fun () ->
      Metrics.probe_cell mt "late" (fun _ -> 0));
  let csv = Metrics.csv mt in
  Alcotest.(check string) "csv" "time,msgs{engine=server},depth,live\n0,5,2,7\n10,5,-3,7\n" csv;
  match Json.parse (Metrics.json mt) with
  | Error e -> Alcotest.fail ("metrics export rejected by strict parser: " ^ e)
  | Ok v ->
    Alcotest.(check (option string)) "metrics schema" (Some "mgs-metrics-1")
      (Option.bind (Json.member "schema" v) Json.to_string)

(* A full window folds instead of evicting: it keeps its even
   boundary rows and doubles its interval, so the rows span the whole
   run and equal what a sampler created at the final interval takes.
   One event per cycle from 0 to [last], each setting the probed value
   to ten times its time; the end sample comes a cycle later. *)
let test_metrics_ring_bound () =
  let feed ~interval ~max_samples ~last =
    let mt = Metrics.create ~interval ~max_samples () in
    let x = ref (-1) in
    Metrics.probe_cell mt "x" (fun _ -> !x);
    for t = 0 to last do
      Metrics.on_event mt ~cell:0 ~now:t;
      x := 10 * t
    done;
    Metrics.sample mt ~now:(last + 1);
    mt
  in
  List.iter
    (fun (last, want) ->
      let mt = feed ~interval:1 ~max_samples:4 ~last in
      let at = Printf.sprintf "end %d: " (last + 1) in
      Alcotest.(check (list (pair int (array int)))) (at ^ "rows from 0 to the end") want
        (Metrics.samples mt);
      Alcotest.(check int) (at ^ "interval doubled twice") 4 (Metrics.interval mt);
      Alcotest.(check int) (at ^ "folded rows counted") 4 (Metrics.dropped mt);
      let fresh = feed ~interval:4 ~max_samples:4096 ~last in
      Alcotest.(check (list (pair int (array int))))
        (at ^ "a sampler at the final interval takes the same rows") (Metrics.samples fresh)
        (Metrics.samples mt))
    [
      (* the end row folds the full window *)
      (6, [ (0, [| -1 |]); (4, [| 30 |]); (7, [| 60 |]) ]);
      (* a boundary folds it, and the end row fits *)
      (9, [ (0, [| -1 |]); (4, [| 30 |]); (8, [| 70 |]); (10, [| 90 |]) ]);
    ];
  Alcotest.check_raises "a window of one row cannot fold"
    (Invalid_argument "Metrics.create: max_samples") (fun () ->
      ignore (Metrics.create ~max_samples:1 ()))

(* Cells merge row by row: after a final [sample] every cell holds the
   same time grid, and rows sum; a cell left on another grid is a
   sampler bug, refused rather than merged. *)
let test_metrics_cells_merge () =
  let mt = Metrics.create ~interval:10 ~cells:2 () in
  Metrics.probe_cell mt "cell" (fun c -> c + 1);
  Metrics.on_event mt ~cell:1 ~now:25;
  Alcotest.check_raises "grids differ before the final sample"
    (Invalid_argument "Metrics: cell 1 sampled another time grid than cell 0") (fun () ->
      ignore (Metrics.samples mt));
  Metrics.sample mt ~now:25;
  Alcotest.(check (list (pair int (array int)))) "rows summed"
    [ (0, [| 3 |]); (10, [| 3 |]); (20, [| 3 |]); (25, [| 3 |]) ]
    (Metrics.samples mt)

(* --- machine integration ---------------------------------------------- *)

let small_machine_of protocol =
  let cfg = Mgs.Machine.config ~nprocs:4 ~cluster:2 ~lan_latency:600 ~shadow:true ~protocol () in
  Mgs.Machine.create cfg

let small_machine () = small_machine_of Mgs.State.Protocol_mgs

let run_mp m =
  let data = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 3) in
  let bar = Mgs_sync.Barrier.create m in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 0 then Mgs.Api.write ctx data 9.0;
         Mgs_sync.Barrier.wait ctx bar;
         ignore (Mgs.Api.read ctx data)));
  data

let test_machine_trace_and_checker () =
  let m = small_machine () in
  let tr = Mgs.Machine.enable_trace m in
  Alcotest.(check bool) "enable_trace is idempotent" true (tr == Mgs.Machine.enable_trace m);
  let checker = Mgs.Machine.enable_checker m in
  ignore (run_mp m);
  Mgs.Machine.assert_quiescent m;
  Alcotest.(check int) "no invariant violations" 0 (Mgs.Invariant.count checker);
  Alcotest.(check bool) "events recorded" true (Trace.emitted tr > 0);
  Alcotest.(check int) "nothing dropped on a small run" 0 (Trace.dropped tr);
  (* every posted message was delivered, so the per-tag histogram and
     the message counter agree *)
  let open Mgs.State in
  List.iter
    (fun tag ->
      let posted = Am.count m.am tag in
      let emitted = match Trace.hist tr tag with None -> 0 | Some h -> Hist.count h in
      Alcotest.(check int) (tag ^ " delivered = posted") posted emitted)
    [ "WREQ"; "RREQ"; "RDAT"; "BAR_COMBINE"; "BAR_RELEASE" ];
  (* sync + protocol engines contributed structured events *)
  let tags = List.map fst (Trace.histograms tr) in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " present") true (List.mem t tags))
    [ "lc.fault"; "sv.send_data"; "sync.barrier_episode" ]

let test_machine_spans_and_metrics () =
  let m = small_machine () in
  let tr = Mgs.Machine.enable_trace m in
  let mt = Mgs.Machine.enable_metrics ~interval:1000 m in
  Alcotest.(check bool) "enable_metrics is idempotent" true
    (mt == Mgs.Machine.enable_metrics m);
  let checker = Mgs.Machine.enable_checker m in
  ignore (run_mp m);
  Mgs.Machine.assert_quiescent m;
  let sp = Trace.spans tr in
  Alcotest.(check bool) "spans recorded" true (Span.count sp > 0);
  Alcotest.(check bool) "transactions minted" true (Span.txns sp > 0);
  Alcotest.(check int) "every span balanced at quiescence" 0 (Span.open_count sp);
  Mgs.Invariant.finish checker;
  Alcotest.(check int) "no orphaned transactions" 0 (Mgs.Invariant.count checker);
  Alcotest.(check bool) "final partial interval sampled" true
    (Metrics.sample_count mt > 0);
  (* every export survives the strict parser *)
  List.iter
    (fun (what, out) ->
      match Json.parse out with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (what ^ ": " ^ e))
    [
      ("chrome", Trace.chrome_json tr);
      ("spans", Span.json sp);
      ("metrics", Metrics.json mt);
    ]

(* Only the span layer can see a request whose reply never came: fake
   one and the end-of-run check must flag it. *)
let test_orphan_span_detected () =
  let m = small_machine () in
  let tr = Mgs.Machine.enable_trace m in
  let checker = Mgs.Machine.enable_checker m in
  ignore (run_mp m);
  ignore
    (Span.open_span (Trace.spans tr) ~parent:Span.none ~time:0 ~label:"fault"
       ~engine:Event.Local_client ());
  Mgs.Invariant.finish checker;
  Alcotest.(check bool) "orphan flagged" true (Mgs.Invariant.count checker > 0);
  let out = Format.asprintf "%a" Mgs.Invariant.pp checker in
  Alcotest.(check bool) "report names the open label" true (contains out "fault");
  Alcotest.(check bool) "report says orphaned" true (contains out "orphaned")

let test_checker_flags_corruption () =
  let open Mgs.State in
  let violation_count ?(engine = Mgs_obs.Event.Server) corrupt =
    let m = small_machine () in
    let checker = Mgs.Machine.enable_checker m in
    let addr = Mgs.Machine.alloc m ~words:256 ~home:(Mgs_mem.Allocator.On_proc 0) in
    Mgs.Machine.poke m addr 1.0;
    let vpn = Mgs_mem.Geom.vpn_of_addr (Mgs.Machine.geom m) addr in
    let tag = corrupt m vpn in
    obs_emit m ~engine ~tag ~vpn ~src:(-1) ~dst:(-1) ~words:0 ~cost:0 ~dur:0;
    Mgs.Invariant.count checker
  in
  let n =
    violation_count (fun m vpn ->
        (get_sentry m vpn).s_count <- -1;
        "test.corrupt")
  in
  Alcotest.(check bool) "negative s_count flagged" true (n > 0);
  let n =
    violation_count (fun m vpn ->
        let se = get_sentry m vpn in
        Mgs_util.Bitset.add se.s_read_dir 1;
        Mgs_util.Bitset.add se.s_write_dir 1;
        Mgs_util.Inttbl.replace se.s_frame_procs 1 2;
        "test.corrupt")
  in
  Alcotest.(check bool) "read/write directory overlap flagged" true (n > 0);
  (* a client fact is checked on client transitions, for the executing
     SSMP's own entry (host code counts as SSMP 0) *)
  let n =
    violation_count ~engine:Mgs_obs.Event.Local_client (fun m vpn ->
        (get_centry m 0 vpn).pstate <- P_busy;
        "test.corrupt")
  in
  Alcotest.(check bool) "BUSY without mapping lock flagged" true (n > 0);
  let n =
    violation_count (fun m vpn ->
        (* master now disagrees with the shadow image of the poke *)
        (get_sentry m vpn).s_master.(0) <- 99.0;
        "sv.epoch_end")
  in
  Alcotest.(check bool) "release-visibility divergence flagged" true (n > 0);
  (* and a healthy machine stays clean under the same emission *)
  let n = violation_count (fun _ _ -> "sv.epoch_end") in
  Alcotest.(check int) "healthy state passes" 0 n

let test_checker_ignores_other_protocols () =
  let cfg =
    Mgs.Machine.config ~nprocs:4 ~cluster:2 ~protocol:Mgs.State.Protocol_ivy ~shadow:false
      ()
  in
  let m = Mgs.Machine.create cfg in
  let checker = Mgs.Machine.enable_checker m in
  let open Mgs.State in
  let addr = Mgs.Machine.alloc m ~words:256 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let vpn = Mgs_mem.Geom.vpn_of_addr (Mgs.Machine.geom m) addr in
  (get_sentry m vpn).s_count <- -1;
  obs_emit m ~engine:Mgs_obs.Event.Server ~tag:"test.corrupt" ~vpn ~src:(-1) ~dst:(-1) ~words:0 ~cost:0 ~dur:0;
  Alcotest.(check int) "ivy machines are not judged by MGS invariants" 0
    (Mgs.Invariant.count checker);
  Mgs.Invariant.finish checker;
  Alcotest.(check string) "the report says nothing was checked" "invariants: none for ivy\n"
    (Format.asprintf "%a" Mgs.Invariant.pp checker);
  (* with spans recorded, the end-of-run span balance is what was checked *)
  let m = small_machine_of Mgs.State.Protocol_hlrc in
  ignore (Mgs.Machine.enable_trace m);
  let checker = Mgs.Machine.enable_checker m in
  ignore (run_mp m);
  Mgs.Invariant.finish checker;
  Alcotest.(check string) "span balance is reported"
    "invariants: none for hlrc (span balance ok)\n"
    (Format.asprintf "%a" Mgs.Invariant.pp checker)

(* Violations list in (time, SSMP) order whatever the job count: two
   SSMPs' fibers each corrupt their own client entry at the same
   simulated time, emit a client transition, and restore it. *)
let test_violation_listing_par_identical () =
  let open Mgs.State in
  let listing par =
    let cfg = Mgs.Machine.config ~nprocs:8 ~cluster:2 ~lan_latency:600 ~par_jobs:par () in
    let m = Mgs.Machine.create cfg in
    let checker = Mgs.Machine.enable_checker m in
    let addr = Mgs.Machine.alloc m ~words:256 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let vpn = Mgs_mem.Geom.vpn_of_addr (Mgs.Machine.geom m) addr in
    ignore
      (Mgs.Machine.run m (fun ctx ->
           let p = Mgs.Api.proc ctx in
           if p = 2 || p = 6 then begin
             let ce = get_centry m (Mgs.Api.ssmp ctx) vpn in
             ce.pstate <- P_busy;
             obs_emit m ~engine:Mgs_obs.Event.Local_client ~tag:"test.corrupt" ~vpn ~src:p
               ~dst:(-1) ~words:0 ~cost:0 ~dur:0;
             ce.pstate <- P_inv
           end));
    Format.asprintf "%a" Mgs.Invariant.pp checker
  in
  let oracle = listing 1 in
  Alcotest.(check bool) "both SSMPs flagged" true
    (contains oracle "2 violations" && contains oracle "SSMP 1 BUSY"
   && contains oracle "SSMP 3 BUSY");
  List.iter
    (fun par ->
      Alcotest.(check string) (Printf.sprintf "par %d listing" par) oracle (listing par))
    [ 2; 4 ]

(* Metrics alone record nothing else: no trace, and a series set that
   matches a traced run's in every column but [spans.open], which has
   no store to read. *)
let test_metrics_record_nothing_else () =
  let csv ~trace =
    let cfg = Mgs.Machine.config ~lan_latency:1000 ~nprocs:8 ~cluster:2 () in
    let m = Mgs.Machine.create cfg in
    if trace then ignore (Mgs.Machine.enable_trace m);
    let mt = Mgs.Machine.enable_metrics m in
    let body, check = (Mgs_apps.Water.workload Mgs_apps.Water.tiny).Mgs_harness.Sweep.prepare m in
    ignore (Mgs.Machine.run m body);
    Mgs.Machine.assert_quiescent m;
    check m;
    if not trace then
      Alcotest.(check bool) "metrics alone install no trace" true (Mgs.Machine.trace m = None);
    Metrics.csv mt
  in
  let without_spans_open csv =
    let rows = List.map (String.split_on_char ',') (String.split_on_char '\n' csv) in
    let col =
      let rec find i = function
        | [] -> Alcotest.fail "no spans.open column"
        | c :: _ when c = "spans.open" -> i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 (List.hd rows)
    in
    List.map (List.filteri (fun i _ -> i <> col)) rows
  in
  let plain = csv ~trace:false and traced = csv ~trace:true in
  Alcotest.(check (list (list string))) "every other column as traced"
    (without_spans_open traced) (without_spans_open plain);
  Alcotest.(check bool) "the traced run had open spans to count" true (plain <> traced)

(* The gauge columns move only through [State.set_pstate] and
   [State.set_s_state]; a state write that bypasses them fails the
   end-of-run check every harness sweep makes. *)
let test_gauges_checked () =
  let open Mgs.State in
  let m = small_machine () in
  let data = run_mp m in
  Mgs.Machine.assert_quiescent m;
  (* a new client entry counts as an invalid page *)
  let ce = get_centry m 1 (Mgs_mem.Geom.vpn_of_addr (Mgs.Machine.geom m) data + 1) in
  Mgs.Machine.assert_quiescent m;
  ce.pstate <- P_read;
  Alcotest.check_raises "a bypassing pstate write is caught"
    (Failure "pages.inv column counts 1 pages, 0 are in that state") (fun () ->
      Mgs.Machine.assert_quiescent m);
  ce.pstate <- P_inv;
  set_pstate m ce P_read;
  Mgs.Machine.assert_quiescent m

(* The transport gauges sample a machine whose config carries a fault
   plan, and only such a machine. *)
let test_net_gauges_faulted () =
  let columns ?faults () =
    let m = Mgs.Machine.create (Mgs.Machine.config ?faults ~nprocs:4 ~cluster:2 ()) in
    let mt = Mgs.Machine.enable_metrics m in
    List.filter (fun c -> String.starts_with ~prefix:"net." c) (Metrics.columns mt)
  in
  Alcotest.(check (list string)) "a faulted machine"
    [ "net.retransmits"; "net.dup_drops"; "net.unacked" ]
    (columns ~faults:(Mgs_net.Fault.of_string "drop=0.1") ());
  Alcotest.(check (list string)) "a faults-free machine" [] (columns ())

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "power-of-two buckets" `Quick test_hist_buckets;
          Alcotest.test_case "empty histogram" `Quick test_hist_empty;
        ] );
      ( "trace",
        [
          Alcotest.test_case "bounded memory" `Quick test_trace_bounded;
          Alcotest.test_case "per-tag histograms" `Quick test_trace_hist;
          Alcotest.test_case "chrome trace_event export" `Quick test_trace_chrome_json;
          Alcotest.test_case "overflow warns loudly" `Quick test_trace_overflow_warning;
          Alcotest.test_case "hostile tags escape cleanly" `Quick
            test_chrome_json_escaping_strict;
        ] );
      ( "rows",
        [
          Alcotest.test_case "recording allocates nothing" `Quick
            test_recording_allocates_nothing;
          Alcotest.test_case "exports pinned" `Quick test_exports_pinned;
          Alcotest.test_case "a host stamp sorts after its time's events" `Quick
            test_host_stamp_last;
          Alcotest.test_case "packed src/seq sorts like the pair" `Quick test_packed_order;
          QCheck_alcotest.to_alcotest prop_rows_model;
        ] );
      ( "span",
        [
          Alcotest.test_case "open/close/txn threading" `Quick test_span_basic;
          Alcotest.test_case "overflow sentinel" `Quick test_span_overflow_sentinel;
          Alcotest.test_case "critical-path attribution" `Quick
            test_span_breakdown_attribution;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry + sampler" `Quick test_metrics_registry_and_sampler;
          Alcotest.test_case "bounded sample window" `Quick test_metrics_ring_bound;
          Alcotest.test_case "cells merge row by row" `Quick test_metrics_cells_merge;
        ] );
      ( "machine",
        [
          Alcotest.test_case "trace + checker on a run" `Quick
            test_machine_trace_and_checker;
          Alcotest.test_case "spans + metrics on a run" `Quick
            test_machine_spans_and_metrics;
          Alcotest.test_case "orphaned span detected" `Quick test_orphan_span_detected;
          Alcotest.test_case "checker flags corrupted state" `Quick
            test_checker_flags_corruption;
          Alcotest.test_case "checker is MGS-only" `Quick
            test_checker_ignores_other_protocols;
          Alcotest.test_case "violation listing is par-identical" `Quick
            test_violation_listing_par_identical;
          Alcotest.test_case "a faulted machine's sampler has the three net.* gauges" `Quick
            test_net_gauges_faulted;
          Alcotest.test_case "metrics record nothing else" `Quick
            test_metrics_record_nothing_else;
          Alcotest.test_case "gauge columns match the state" `Quick test_gauges_checked;
        ] );
    ]
