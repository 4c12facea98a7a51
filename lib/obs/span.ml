(* Causal span collector.

   A transaction is one protocol operation as the application sees it —
   a page fault, a release, a lock or barrier episode.  Each transaction
   gets a deterministic integer ID minted at initiation, and every piece
   of work done on its behalf (a LAN transfer, a DMA burst, a handler
   occupancy slice, a server-side queueing delay) is recorded as a span:
   a [t0, t1] interval with an engine label, linked to its parent span.
   The scheduler is deterministic, so IDs and spans are reproducible
   run-to-run and identical under parallel sweeps.

   Storage is per shard ("cell"): under the parallel engine each domain
   opens spans only in its own SSMP's cell, so the hot path shares
   nothing across domains.  Cells are merged at export by each span's
   stamp — the key of the simulator event that opened it (see
   {!Mgs_engine.Shardq}), three integers in {!Rows} — whose order is
   the same at every job count
   (at a positive lookahead it is the order the one heap runs events
   in).  Span and transaction IDs are renumbered densely in that order
   at export, so every export is byte-identical between jobs=1 and
   jobs>=2 runs.
   Single-cell stores skip stamping entirely and export raw IDs — the
   original single-domain behavior, byte for byte.

   Storage is bounded: past [capacity] spans (per cell) new opens are
   counted as dropped and return a sentinel context whose close is a
   no-op, so a run of any length cannot grow memory without bound. *)

(* A context packs its transaction and span IDs into one immediate int,
   [(txn + 1) lsl 31 lor (sid + 2)]: any [txn >= -1] with a recorded
   span ([sid >= 0]), no span ([-1]) or a dropped span ([-2]).  So
   opening and closing a span allocates nothing.  Span IDs stay below
   2^31 (see [create]); transaction IDs must too. *)
type ctx = int

let sid_bits = 31

let pack ~txn ~sid = ((txn + 1) lsl sid_bits) lor (sid + 2)

let txn_of ctx = (ctx lsr sid_bits) - 1

let sid_of ctx = (ctx land ((1 lsl sid_bits) - 1)) - 2

let none = pack ~txn:(-1) ~sid:(-1)

type span = {
  sid : int;
  parent : int; (* parent span id; -1 for a transaction root *)
  txn : int;
  label : string;
  engine : Event.engine;
  t0 : int;
  mutable t1 : int; (* -1 while open *)
  vpn : int;
  src : int;
  dst : int;
  src_ssmp : int;
  dst_ssmp : int;
  words : int;
}

(* One {!Rows} row per span; the [span] record above is the read-side
   view that [iter] materializes for the cold analysis and export paths.
   A span's public ID encodes its cell: [sid = slot * ncells + cell], so
   [close] routes back to the owning cell without a lookup.  With one
   cell the encoding is the identity. *)
let f_parent = 0 and f_txn = 1 and f_t0 = 2 and f_t1 = 3 and f_vpn = 4 and f_src = 5

let f_dst = 6 and f_src_ssmp = 7 and f_dst_ssmp = 8 and f_words = 9 and f_label = 10

let f_engine = 11

let width = 12

type cell = {
  rows : Rows.t; (* fills, then drops *)
  mutable c_txns : int; (* local transaction mint counter *)
  mutable c_open : int;
  mutable c_current : ctx;
}

type t = {
  ncells : int;
  cells : cell array;
  mutable host_seq : int; (* order stamp for host-side (non-event) opens *)
}

let default_capacity = 1 lsl 17

let create ?(capacity = default_capacity) ?(cells = 1) () =
  if capacity <= 0 || capacity >= 1 lsl (sid_bits - 1) then
    invalid_arg "Span.create: capacity";
  if cells < 1 then invalid_arg "Span.create: cells";
  (* [capacity] is the TOTAL budget, divided among the cells: a
     16-SSMP machine must not retain 16x the memory of one cell *)
  let mk_cell () =
    {
      rows = Rows.create ~width ~capacity ~cells ~ring:false;
      c_txns = 0;
      c_open = 0;
      c_current = none;
    }
  in
  { ncells = cells; cells = Array.init cells (fun _ -> mk_cell ()); host_seq = 0 }

(* The order stamp for an emission happening now: the executing event's
   key, or a synthetic host key ordered by emission time then a
   host-side counter.  [sched = max_int] makes a host emission sort
   after every event emission of the same instant (an event's [sched]
   is at most its fire time): host code runs only once the events of
   that instant have drained. *)
let stamp t r slot ~time =
  let e = Mgs_engine.Sim.running () in
  if e.shard >= 0 then Rows.set_stamp r slot ~fire:e.fire ~sched:e.sched ~srcseq:e.srcseq
  else begin
    let seq = t.host_seq in
    t.host_seq <- seq + 1;
    Rows.set_stamp r slot ~fire:time ~sched:max_int ~srcseq:seq
  end

let mint_in t cl c =
  let id = cl.c_txns in
  cl.c_txns <- id + 1;
  (id * t.ncells) + c

let mint_txn t =
  let c = Rows.cur_cell t.ncells in
  mint_in t t.cells.(c) c

(* Open a span.  [parent = none] starts a fresh transaction (a new ID is
   minted); otherwise the parent's transaction is inherited.  When the
   store is full the span is dropped (counted) and the returned context
   carries sid [-2], which [close] ignores — the transaction ID still
   threads through so child spans that do fit stay attributed. *)
let open_span_x t ~(parent : ctx) ~time ~label ~engine ~vpn ~src ~dst ~src_ssmp ~dst_ssmp
    ~words =
  let c = Rows.cur_cell t.ncells in
  let cl = t.cells.(c) in
  let ptxn = txn_of parent in
  let txn = if ptxn >= 0 then ptxn else mint_in t cl c in
  let r = cl.rows in
  let slot = Rows.add r in
  if slot < 0 then pack ~txn ~sid:(-2)
  else begin
    let a = Rows.chunk r slot and b = Rows.base r slot in
    a.(b + f_parent) <- Int.max (sid_of parent) (-1);
    a.(b + f_txn) <- txn;
    a.(b + f_t0) <- time;
    a.(b + f_t1) <- -1;
    a.(b + f_vpn) <- vpn;
    a.(b + f_src) <- src;
    a.(b + f_dst) <- dst;
    a.(b + f_src_ssmp) <- src_ssmp;
    a.(b + f_dst_ssmp) <- dst_ssmp;
    a.(b + f_words) <- words;
    a.(b + f_label) <- Rows.intern r label;
    a.(b + f_engine) <- Event.engine_index engine;
    if t.ncells > 1 then stamp t r slot ~time;
    cl.c_open <- cl.c_open + 1;
    pack ~txn ~sid:((slot * t.ncells) + c)
  end

(* Optional-argument convenience wrapper.  Hot paths call [open_span_x]
   directly: supplying an optional argument boxes it in a [Some] at
   every call site. *)
let open_span t ~(parent : ctx) ~time ~label ~engine ?(vpn = -1) ?(src = -1) ?(dst = -1)
    ?(src_ssmp = -1) ?(dst_ssmp = -1) ?(words = 0) () =
  open_span_x t ~parent ~time ~label ~engine ~vpn ~src ~dst ~src_ssmp ~dst_ssmp ~words

let close t (ctx : ctx) ~time =
  let sid = sid_of ctx in
  if sid >= 0 then begin
    let cl = t.cells.(sid mod t.ncells) in
    let l = sid / t.ncells in
    if l < Rows.kept cl.rows then begin
      let a = Rows.chunk cl.rows l and b = Rows.base cl.rows l in
      if a.(b + f_t1) < 0 then begin
        a.(b + f_t1) <- Int.max time a.(b + f_t0);
        cl.c_open <- cl.c_open - 1
      end
    end
  end

let current t = t.cells.(Rows.cur_cell t.ncells).c_current

let set_current t ctx = t.cells.(Rows.cur_cell t.ncells).c_current <- ctx

let count t = Array.fold_left (fun acc cl -> acc + Rows.kept cl.rows) 0 t.cells

let open_count t = Array.fold_left (fun acc cl -> acc + cl.c_open) 0 t.cells

let open_count_cell t c = t.cells.(c).c_open

let dropped t = Array.fold_left (fun acc cl -> acc + Rows.dropped cl.rows) 0 t.cells

let txns t = Array.fold_left (fun acc cl -> acc + cl.c_txns) 0 t.cells

(* Span [enc] (encoded public ID) materialized with raw encoded
   sid/parent/txn fields. *)
let enc_get t enc =
  let r = t.cells.(enc mod t.ncells).rows in
  let l = enc / t.ncells in
  let a = Rows.chunk r l and b = Rows.base r l in
  {
    sid = enc;
    parent = a.(b + f_parent);
    txn = a.(b + f_txn);
    label = Rows.name r a.(b + f_label);
    engine = Event.engine_of_index a.(b + f_engine);
    t0 = a.(b + f_t0);
    t1 = a.(b + f_t1);
    vpn = a.(b + f_vpn);
    src = a.(b + f_src);
    dst = a.(b + f_dst);
    src_ssmp = a.(b + f_src_ssmp);
    dst_ssmp = a.(b + f_dst_ssmp);
    words = a.(b + f_words);
  }

(* --- merged view ---------------------------------------------------- *)

(* Read-side view of a multi-cell store: every span ordered by its
   stamp (key order, the same at every job count), with span and
   transaction IDs renumbered densely in that order.  In the
   single-cell case the emission order already IS the execution order
   and raw IDs are already dense, so the view is the identity and no
   sort happens — exports from a single-cell store are byte-identical
   to the historical single-domain implementation. *)
type view = {
  v_ident : bool;
  v_order : int array; (* encoded sids, key order ([||] when ident) *)
  v_sid : int array; (* encoded sid -> dense sid ([||] when ident) *)
  v_txn : (int, int) Hashtbl.t; (* encoded txn -> dense txn *)
}

let view t =
  if t.ncells = 1 then
    { v_ident = true; v_order = [||]; v_sid = [||]; v_txn = Hashtbl.create 1 }
  else begin
    let total = count t in
    let order = Array.make total 0 in
    let idx = ref 0 in
    Array.iteri
      (fun c cl ->
        for l = 0 to Rows.kept cl.rows - 1 do
          order.(!idx) <- (l * t.ncells) + c;
          incr idx
        done)
      t.cells;
    let rows enc = t.cells.(enc mod t.ncells).rows in
    (* equal stamps only happen within one cell (one simulator event
       executes on exactly one shard), where the local index breaks the
       tie in emission order — so this comparison is total. *)
    Array.sort
      (fun a b ->
        let k = Rows.cmp_stamp (rows a) (a / t.ncells) (rows b) (b / t.ncells) in
        if k <> 0 then k else compare a b)
      order;
    let maxcn = Array.fold_left (fun acc cl -> Int.max acc (Rows.kept cl.rows)) 0 t.cells in
    let v_sid = Array.make (Int.max 1 (maxcn * t.ncells)) (-1) in
    let v_txn = Hashtbl.create 256 in
    Array.iteri
      (fun dense enc ->
        v_sid.(enc) <- dense;
        let tx = Rows.get t.cells.(enc mod t.ncells).rows (enc / t.ncells) f_txn in
        if not (Hashtbl.mem v_txn tx) then Hashtbl.add v_txn tx (Hashtbl.length v_txn))
      order;
    { v_ident = false; v_order = order; v_sid; v_txn }
  end

let view_sid v enc = if v.v_ident || enc < 0 then enc else v.v_sid.(enc)

let view_txn v tx =
  if v.v_ident || tx < 0 then tx
  else match Hashtbl.find_opt v.v_txn tx with Some d -> d | None -> -1

(* Map an encoded transaction ID (as carried on trace events) to its
   dense export ID.  [-1] (no transaction) maps to itself; a
   transaction none of whose spans survived maps to [-1]. *)
let txn_mapper t =
  let v = view t in
  fun tx -> view_txn v tx

let view_iter t v f =
  let emit enc =
    let s = enc_get t enc in
    f
      {
        s with
        sid = view_sid v enc;
        parent = view_sid v s.parent;
        txn = view_txn v s.txn;
      }
  in
  if v.v_ident then
    for l = 0 to Rows.kept t.cells.(0).rows - 1 do
      emit l
    done
  else Array.iter emit v.v_order

let iter t f = view_iter t (view t) f

(* No view: cells in turn, each in emission order, raw fields. *)
let fold_unordered t ~init f =
  Array.fold_left
    (fun acc cl ->
      let r = cl.rows in
      let acc = ref acc in
      Rows.iter r (fun _ l ->
          let a = Rows.chunk r l and b = Rows.base r l in
          acc :=
            f !acc ~label:(Rows.name r a.(b + f_label)) ~parent:a.(b + f_parent)
              ~t0:a.(b + f_t0) ~t1:a.(b + f_t1));
      !acc)
    init t.cells

let open_labels t =
  List.rev
    (fold_unordered t ~init:[] (fun acc ~label ~parent:_ ~t0:_ ~t1 ->
         if t1 < 0 then label :: acc else acc))

(* --- critical-path analysis ---------------------------------------- *)

(* Table-4 components of a remote page fault.  All totals are summed
   cycles across the analyzed faults; [residual] is end-to-end time not
   covered by any instrumented span (ideally ~0). *)
type breakdown = {
  faults : int;
  e2e : int;
  local : int; (* faulting-side handler + fault-path work *)
  wire : int; (* LAN transit (queueing + latency) *)
  dma : int; (* bulk page/diff transfer time *)
  server : int; (* home-side handler occupancy *)
  remote : int; (* third-party invalidation / write-back work *)
  queue : int; (* waiting out a release epoch at the server *)
  residual : int;
}

let zero_breakdown =
  {
    faults = 0;
    e2e = 0;
    local = 0;
    wire = 0;
    dma = 0;
    server = 0;
    remote = 0;
    queue = 0;
    residual = 0;
  }

let coverage b =
  if b.e2e = 0 then 1.0 else float_of_int (b.e2e - b.residual) /. float_of_int b.e2e

(* Message tags whose handler runs at the home server on behalf of a
   fault; their presence is what marks a fault transaction as remote. *)
let fetch_request_tags =
  [ "h.RREQ"; "h.WREQ"; "h.HLRC_RREQ"; "h.HLRC_WREQ"; "h.IVY_RREQ"; "h.IVY_WREQ" ]

let server_tags =
  [
    "h.RREQ"; "h.WREQ"; "h.HLRC_RREQ"; "h.HLRC_WREQ"; "h.IVY_RREQ"; "h.IVY_WREQ";
    "h.REL"; "h.SYNC"; "h.WNOTIFY"; "h.HLRC_DIFF"; "h.ACK"; "h.DIFF"; "h.1WDATA";
    "h.1WCLEAN"; "h.IVY_ACK"; "h.IVY_PAGE"; "h.IVY_GACK";
  ]

let remote_tags = [ "h.INV"; "h.1WINV"; "h.IVY_INV"; "h.IVY_RECALL"; "h.PINV"; "h.PINV_ACK"; "h.UPGRADE" ]

(* Attribution priority when spans of one transaction overlap in time
   (e.g. a parallel invalidation fan-out): each instant is charged to
   exactly one component, the highest-priority one active. *)
let component_of label =
  if label = "net.dma" then Some (5, `Dma)
  else if label = "net.wire" then Some (4, `Wire)
  else if List.mem label server_tags then Some (3, `Server)
  else if List.mem label remote_tags || String.starts_with ~prefix:"rc." label then
    Some (2, `Remote)
  else if label = "sv.queue" then Some (1, `Queue)
  else Some (0, `Local)

(* Engine classification from the label alone, so the active-message
   layer can open handler spans without protocol knowledge. *)
let engine_of_label label =
  if label = "net.wire" || label = "net.dma" then Event.Network
  else
    match component_of label with
    | Some (_, `Server) | Some (_, `Queue) -> Event.Server
    | Some (_, `Remote) -> Event.Remote_client
    | _ -> Event.Local_client

(* Charge the union of [ivals] (clipped to [lo, hi]) to components by a
   boundary sweep: at each elementary segment the highest-priority
   covering interval wins; uncovered segments are residual. *)
let attribute ~lo ~hi ivals acc =
  let ivals =
    List.filter_map
      (fun (a, b, pc) ->
        let a = Int.max a lo and b = Int.min b hi in
        if b > a then Some (a, b, pc) else None)
      ivals
  in
  let cuts =
    List.sort_uniq compare (lo :: hi :: List.concat_map (fun (a, b, _) -> [ a; b ]) ivals)
  in
  let rec sweep acc = function
    | a :: (b :: _ as rest) ->
      let seg = b - a in
      let best =
        List.fold_left
          (fun best (x, y, pc) ->
            if x <= a && y >= b then
              match best with
              | Some (p, _) when p >= fst pc -> best
              | _ -> Some pc
            else best)
          None ivals
      in
      let acc =
        match best with
        | None -> { acc with residual = acc.residual + seg }
        | Some (_, `Dma) -> { acc with dma = acc.dma + seg }
        | Some (_, `Wire) -> { acc with wire = acc.wire + seg }
        | Some (_, `Server) -> { acc with server = acc.server + seg }
        | Some (_, `Remote) -> { acc with remote = acc.remote + seg }
        | Some (_, `Queue) -> { acc with queue = acc.queue + seg }
        | Some (_, `Local) -> { acc with local = acc.local + seg }
      in
      sweep acc rest
    | _ -> acc
  in
  sweep acc cuts

let fault_breakdown t =
  (* group spans by transaction; the merged view keeps the grouping
     and the txn iteration order identical across job counts *)
  let roots = Hashtbl.create 256 in
  let children = Hashtbl.create 256 in
  iter t (fun s ->
      if s.t1 >= 0 then
        if s.parent < 0 then Hashtbl.replace roots s.txn s
        else
          Hashtbl.replace children s.txn
            (s :: Option.value ~default:[] (Hashtbl.find_opt children s.txn)));
  let txn_ids =
    List.sort compare (Hashtbl.fold (fun txn _ acc -> txn :: acc) roots [])
  in
  List.fold_left
    (fun acc txn ->
      let root = Hashtbl.find roots txn in
      let kids = Option.value ~default:[] (Hashtbl.find_opt children txn) in
      let is_remote_fault =
        root.label = "fault"
        && List.exists (fun s -> List.mem s.label fetch_request_tags) kids
      in
      if not is_remote_fault then acc
      else begin
        let e2e = root.t1 - root.t0 in
        let ivals =
          List.filter_map
            (fun s ->
              match component_of s.label with
              | Some pc -> Some (s.t0, s.t1, pc)
              | None -> None)
            kids
        in
        let acc = { acc with faults = acc.faults + 1; e2e = acc.e2e + e2e } in
        attribute ~lo:root.t0 ~hi:root.t1 ivals acc
      end)
    zero_breakdown txn_ids

(* --- export ---------------------------------------------------------- *)

let json_escape = Json.escape

let span_json buf s =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"sid\":%d,\"parent\":%d,\"txn\":%d,\"label\":\"%s\",\"engine\":\"%s\",\"t0\":%d,\"t1\":%d,\"vpn\":%d,\"src\":%d,\"dst\":%d,\"src_ssmp\":%d,\"dst_ssmp\":%d,\"words\":%d}"
       s.sid s.parent s.txn (json_escape s.label) (Event.engine_name s.engine) s.t0 s.t1
       s.vpn s.src s.dst s.src_ssmp s.dst_ssmp s.words)

let json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":\"mgs-spans-1\",\"txns\":%d,\"dropped\":%d,\"spans\":["
       (txns t) (dropped t));
  let first = ref true in
  iter t (fun s ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      span_json buf s);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_json t oc = output_string oc (json t)

(* Chrome trace_event section: one async begin/end pair per span (the
   nestable 'b'/'e' phases group by id, so a whole transaction folds
   into one track) plus a flow arrow from each parent to its child,
   which Perfetto draws across processors. *)
let chrome_section buf t ~emit_sep =
  let v = view t in
  view_iter t v (fun s ->
      if s.t1 >= 0 then begin
        let pid = if s.dst_ssmp >= 0 then s.dst_ssmp else Int.max s.src_ssmp 0 in
        let tid = if s.dst >= 0 then s.dst else Int.max s.src 0 in
        emit_sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"b\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"txn\":%d,\"sid\":%d,\"parent\":%d,\"vpn\":%d}}"
             (json_escape s.label) s.txn s.t0 pid tid s.txn s.sid s.parent s.vpn);
        emit_sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"e\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":%d}"
             (json_escape s.label) s.txn s.t1 pid tid);
        if s.parent >= 0 then begin
          (* flow arrow: from the parent's location at the moment the
             child begins, to the child — the causal hand-off.  The
             parent's dense ID decodes back through the view to the raw
             store for its location fields. *)
          let p_enc =
            if v.v_ident then s.parent
            else (
              (* dense -> encoded: position [s.parent] of the order *)
              v.v_order.(s.parent))
          in
          let p = enc_get t p_enc in
          let ppid = if p.dst_ssmp >= 0 then p.dst_ssmp else Int.max p.src_ssmp 0 in
          let ptid = if p.dst >= 0 then p.dst else Int.max p.src 0 in
          emit_sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":%d}"
               s.sid s.t0 ppid ptid);
          emit_sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":%d}"
               s.sid s.t0 pid tid)
        end
      end)
