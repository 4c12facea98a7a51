(* Bounded event trace, sharded per SSMP.

   Each shard ("cell") owns a {!Rows} cell of event rows, used as a
   ring, and histograms indexed by the cell's interned tag ids: under
   the parallel engine every domain emits only into its own cell, so
   the hot path shares nothing and allocates nothing.  Reads merge the
   cells — events by their stamp (the key of the simulator event that
   emitted them), histograms exactly — in an order that is the same at
   every job count, so every export is byte-identical across job
   counts.  An {!Event.t} is built only at export. *)

type cell = {
  rows : Rows.t;
  mutable hists : Hist.t array; (* by interned tag id *)
}

type t = {
  ncells : int;
  cells : cell array;
  spans : Span.t;
}

(* Row fields, in {!Event.t} order; the tag is the cell's interned id
   and the engine its index. *)
let f_time = 0 and f_engine = 1 and f_tag = 2 and f_vpn = 3 and f_src = 4 and f_dst = 5

let f_src_ssmp = 6 and f_dst_ssmp = 7 and f_words = 8 and f_cost = 9 and f_dur = 10

let f_txn = 11

let width = 12

let default_capacity = 65536

let create ?(capacity = default_capacity) ?span_capacity ?(cells = 1) () =
  if cells < 1 then invalid_arg "Trace.create: cells";
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  (* [capacity] is the TOTAL event budget, divided among the cells, so
     a multi-cell trace costs what the single-cell one did *)
  {
    ncells = cells;
    cells =
      Array.init cells (fun _ ->
          { rows = Rows.create ~width ~capacity ~cells ~ring:true; hists = [||] });
    spans = Span.create ?capacity:span_capacity ~cells ();
  }

let spans t = t.spans

let hist_of cl id =
  if id >= Array.length cl.hists then
    cl.hists <-
      Array.init (max 32 (2 * id)) (fun i ->
          if i < Array.length cl.hists then cl.hists.(i) else Hist.create ());
  cl.hists.(id)

let event_of r slot : Event.t =
  let a = Rows.chunk r slot and b = Rows.base r slot in
  {
    time = a.(b + f_time);
    engine = Event.engine_of_index a.(b + f_engine);
    tag = Rows.name r a.(b + f_tag);
    vpn = a.(b + f_vpn);
    src = a.(b + f_src);
    dst = a.(b + f_dst);
    src_ssmp = a.(b + f_src_ssmp);
    dst_ssmp = a.(b + f_dst_ssmp);
    words = a.(b + f_words);
    cost = a.(b + f_cost);
    dur = a.(b + f_dur);
    txn = a.(b + f_txn);
  }

(* One row into the emitting shard's cell.  A multi-cell trace also
   records {!Span.stamp}: the executing event's key, or a
   synthetic host key, as three integers. *)
let emit t ~time ~engine ~tag ~vpn ~src ~dst ~src_ssmp ~dst_ssmp ~words ~cost ~dur ~txn =
  let cl = t.cells.(Rows.cur_cell t.ncells) in
  let r = cl.rows in
  let slot = Rows.add r in
  let a = Rows.chunk r slot and b = Rows.base r slot in
  let id = Rows.intern r tag in
  a.(b + f_time) <- time;
  a.(b + f_engine) <- Event.engine_index engine;
  a.(b + f_tag) <- id;
  a.(b + f_vpn) <- vpn;
  a.(b + f_src) <- src;
  a.(b + f_dst) <- dst;
  a.(b + f_src_ssmp) <- src_ssmp;
  a.(b + f_dst_ssmp) <- dst_ssmp;
  a.(b + f_words) <- words;
  a.(b + f_cost) <- cost;
  a.(b + f_dur) <- dur;
  a.(b + f_txn) <- txn;
  if t.ncells > 1 then Span.stamp t.spans r slot ~time;
  Hist.add (hist_of cl id) dur

let emitted t = Array.fold_left (fun acc cl -> acc + Rows.added cl.rows) 0 t.cells

let retained t = Array.fold_left (fun acc cl -> acc + Rows.kept cl.rows) 0 t.cells

let dropped t = Array.fold_left (fun acc cl -> acc + Rows.dropped cl.rows) 0 t.cells

(* Merge the retained events of every cell into stamp order: sort by
   stamp, ties (same event emitting several events — necessarily one
   cell) by position in that cell's ring.  Single-cell: the ring order,
   no sort. *)
let merged t =
  let entries = ref [] in
  Array.iter
    (fun cl ->
      let r = cl.rows in
      Rows.iter r (fun pos slot -> entries := (r, pos, slot) :: !entries))
    t.cells;
  let entries = Array.of_list (List.rev !entries) in
  if t.ncells > 1 then
    Array.sort
      (fun (r1, p1, s1) (r2, p2, s2) ->
        let c = Rows.cmp_stamp r1 s1 r2 s2 in
        if c <> 0 then c else compare p1 p2)
      entries;
  Array.map (fun (r, _, slot) -> event_of r slot) entries

(* Events with transaction IDs translated to their dense export values
   (identity for a single-cell trace). *)
let merged_mapped t =
  let tx = Span.txn_mapper t.spans in
  Array.map
    (fun (e : Event.t) ->
      let m = tx e.txn in
      if m = e.txn then e else { e with txn = m })
    (merged t)

let events t = Array.to_list (merged_mapped t)

(* Per-tag histograms merged across cells, sorted by tag. *)
let histograms t =
  let merged = Hashtbl.create 32 in
  Array.iter
    (fun cl ->
      Array.iteri
        (fun id h ->
          if Hist.count h > 0 then begin
            let tag = Rows.name cl.rows id in
            match Hashtbl.find_opt merged tag with
            | Some acc -> Hist.merge ~into:acc h
            | None ->
              let acc = Hist.create () in
              Hist.merge ~into:acc h;
              Hashtbl.add merged tag acc
          end)
        cl.hists)
    t.cells;
  List.sort compare (Hashtbl.fold (fun k h acc -> (k, h) :: acc) merged [])

let hist t tag = List.assoc_opt tag (histograms t)

(* --- Chrome trace_event export ------------------------------------- *)

(* All strings flowing into the JSON pass through {!Json.escape}, which
   handles quotes, backslashes, and control characters, and \u-escapes
   everything outside printable ASCII — a tag with arbitrary bytes can
   no longer produce unparseable output. *)
let json_escape = Json.escape

(* One Chrome "complete" ('X') slice per event: pid = the SSMP where the
   work lands, tid = the processor there, ts..ts+dur the transfer or
   occupancy interval in simulated cycles (1 cycle = 1 "us" on the
   chrome://tracing timeline). *)
let chrome_event buf (e : Event.t) =
  let pid = if e.dst_ssmp >= 0 then e.dst_ssmp else max e.src_ssmp 0 in
  let tid = if e.dst >= 0 then e.dst else max e.src 0 in
  let ts = e.time - max e.dur 0 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"vpn\":%d,\"src\":%d,\"dst\":%d,\"words\":%d,\"cost\":%d,\"txn\":%d}}"
       (json_escape e.tag)
       (Event.engine_name e.engine)
       ts (max e.dur 0) pid tid e.vpn e.src e.dst e.words e.cost e.txn)

let chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  Array.iter
    (fun e ->
      sep ();
      chrome_event buf e)
    (merged_mapped t);
  (* the spans section: async begin/end per span plus parent-to-child
     flow arrows, in the same traceEvents array *)
  Span.chrome_section buf t.spans ~emit_sep:sep;
  (* multi-cell traces add one engine lane per shard: a process_name
     metadata record plus a per-shard emitted-events counter.  Both are
     deterministic (per-shard emission counts are a pure function of
     the simulated program). *)
  if t.ncells > 1 then
    Array.iteri
      (fun c cl ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"ssmp%d (shard %d)\"}}"
             c c c);
        let last = ref 0 in
        Rows.iter cl.rows (fun _ slot -> last := Rows.get cl.rows slot f_time);
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"engine.events\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"args\":{\"emitted\":%d}}"
             !last c (Rows.added cl.rows)))
      t.cells;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome t oc = output_string oc (chrome_json t)

let pp_overflow_warning ppf t =
  (if dropped t > 0 then begin
    Format.fprintf ppf
      "WARNING: event ring overflowed: %d of %d events dropped — histograms are \
       complete, but the retained event window (and any decomposition derived from \
       it) covers only the last %d events@."
      (dropped t) (emitted t) (retained t);
    if t.ncells > 1 then
      Array.iteri
        (fun c cl ->
          if Rows.dropped cl.rows > 0 then
            Format.fprintf ppf
              "         shard %d dropped %d of %d (a quiet shard's intact ring does \
               not recover another shard's history)@."
              c (Rows.dropped cl.rows) (Rows.added cl.rows))
        t.cells
  end);
  if Span.dropped t.spans > 0 then
    Format.fprintf ppf
      "WARNING: span store full: %d spans dropped — the latency decomposition \
       undercounts@."
      (Span.dropped t.spans)

let pp_summary ppf t =
  Format.fprintf ppf "events: %d emitted, %d retained, %d dropped@." (emitted t)
    (retained t) (dropped t);
  pp_overflow_warning ppf t;
  List.iter
    (fun (tag, h) -> Format.fprintf ppf "  %-14s %a@." tag Hist.pp h)
    (histograms t)
