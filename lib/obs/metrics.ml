(* Metrics registry + simulated-clock sampler, sharded per SSMP.

   Every series is a per-cell probe: an int read of state the sampling
   cell's shard owns, usually a counter it keeps anyway.  Each cell
   (one per engine shard) records its samples as int rows in a {!Rows}
   store of its own, [time] then one int per series, so under the
   parallel engine nothing on the hot path is shared.

   Sampling runs on a boundary grid: row k is taken at simulated
   time k*interval, snapshotted by the first event in each cell whose
   time has reached that boundary (crossed boundaries are back-filled
   with the then-current values — correct, because no event of that
   cell ran in between).  A cell's pre-event state at a boundary is a
   pure function of that cell's executed-event prefix, which the engine
   keeps identical across job counts, so the merged time-series is
   byte-identical across job counts.  The final {!sample} fills every
   cell to the last crossed boundary and appends one row at the exact
   end time, so every cell then holds the same time grid and the merge
   is a row-by-row sum.

   A full window folds: it keeps its even boundary rows and doubles the
   cell's interval.  The rows a cell holds depend only on the
   boundaries crossed and the {!sample} calls, not on its shard's pace,
   so all cells fold alike and end on one grid. *)

type series = { s_name : string; read : int -> int }

type t = {
  max_samples : int;
  ncells : int;
  mutable series : series list; (* reverse registration order *)
  mutable probes : (int -> int) array; (* column order; set by {!freeze} *)
  mutable rows : Rows.t array; (* one per cell; [||] until {!freeze} *)
  iv : int array; (* per cell: its interval, doubled at each fold *)
  last_b : int array; (* per cell: highest boundary index filled; -1 initially *)
  folded : int array; (* per cell: rows folded away *)
  hists : (string, Hist.t) Hashtbl.t;
}

let default_interval = 10_000

let create ?(interval = default_interval) ?(max_samples = 4096) ?(cells = 1) () =
  if interval <= 0 then invalid_arg "Metrics.create: interval";
  if max_samples < 2 then invalid_arg "Metrics.create: max_samples";
  if cells < 1 then invalid_arg "Metrics.create: cells";
  {
    max_samples;
    ncells = cells;
    series = [];
    probes = [||];
    rows = [||];
    iv = Array.make cells interval;
    last_b = Array.make cells (-1);
    folded = Array.make cells 0;
    hists = Hashtbl.create 32;
  }

let interval t = t.iv.(0)

(* "name{k=v,k2=v2}": labels are sorted so the same set always yields
   the same series name. *)
let full_name name labels =
  match labels with
  | [] -> name
  | l ->
    let l = List.sort compare l in
    name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let probe_cell t ?(labels = []) name read =
  let name = full_name name labels in
  if List.exists (fun s -> s.s_name = name) t.series then
    invalid_arg (Printf.sprintf "Metrics: duplicate series %s" name);
  if Array.length t.rows > 0 then
    invalid_arg (Printf.sprintf "Metrics: cannot register %s after sampling started" name);
  t.series <- { s_name = name; read } :: t.series

let histogram t ?(labels = []) name =
  let key = full_name name labels in
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.replace t.hists key h;
    h

let columns t = List.rev_map (fun s -> s.s_name) t.series

(* Each cell's store is sized to the columns, so allocating the stores
   freezes them. *)
let freeze t =
  if Array.length t.rows = 0 then begin
    t.probes <- Array.of_list (List.rev_map (fun s -> s.read) t.series);
    let width = 1 + Array.length t.probes in
    t.rows <-
      Array.init t.ncells (fun _ ->
          Rows.create ~width ~capacity:t.max_samples ~cells:1 ~ring:false)
  end

(* Keep the rows on the doubled grid (an end row off it goes too). *)
let fold t cell =
  let r = t.rows.(cell) and iv = 2 * t.iv.(cell) in
  let n = Rows.kept r and width = 1 + Array.length t.probes in
  let kept = ref 0 in
  for slot = 0 to n - 1 do
    if Rows.get r slot 0 mod iv = 0 then begin
      Array.blit (Rows.chunk r slot) (Rows.base r slot) (Rows.chunk r !kept)
        (Rows.base r !kept) width;
      incr kept
    end
  done;
  Rows.truncate r !kept;
  t.folded.(cell) <- t.folded.(cell) + n - !kept;
  t.iv.(cell) <- iv;
  t.last_b.(cell) <- t.last_b.(cell) / 2

(* Write a row for [cell] at [time]; a repeat of the last row's time
   overwrites it in place (the end-of-run sample landing exactly on a
   boundary refreshes that boundary's row rather than duplicating it).
   A new row folds a full window first. *)
let push_row t cell ~time =
  let r = t.rows.(cell) in
  let n = Rows.kept r in
  let slot =
    if n > 0 && Rows.get r (n - 1) 0 = time then n - 1
    else begin
      if n = t.max_samples then fold t cell;
      Rows.add r
    end
  in
  let a = Rows.chunk r slot and b = Rows.base r slot in
  a.(b) <- time;
  for j = 0 to Array.length t.probes - 1 do
    a.(b + 1 + j) <- t.probes.(j) cell
  done

(* A full window folds before the next boundary is placed, so the
   boundary lands on the doubled grid. *)
let rec fill_boundaries t cell ~now =
  let k = t.last_b.(cell) + 1 in
  if k * t.iv.(cell) <= now then begin
    freeze t;
    if Rows.kept t.rows.(cell) = t.max_samples then fold t cell
    else begin
      push_row t cell ~time:(k * t.iv.(cell));
      t.last_b.(cell) <- k
    end;
    fill_boundaries t cell ~now
  end

(* Pre-event hook: called with the executing event's shard and time
   before the event runs, so a crossed boundary is captured with the
   state as of the end of the previous event — identical whichever
   engine mode interleaved the other shards. *)
let on_event t ~cell ~now =
  let cell = if cell < 0 || cell >= t.ncells then 0 else cell in
  fill_boundaries t cell ~now

let sample t ~now =
  for cell = 0 to t.ncells - 1 do
    fill_boundaries t cell ~now;
    push_row t cell ~time:now
  done

(* The cells' rows summed row by row.  After the final {!sample} every
   cell holds the same times; a cell that does not is a sampler bug. *)
let samples t =
  if Array.length t.rows = 0 then []
  else begin
    let n = Rows.kept t.rows.(0) and ncols = Array.length t.probes in
    let times = Array.make n 0 and sums = Array.init n (fun _ -> Array.make ncols 0) in
    let mismatch c =
      invalid_arg (Printf.sprintf "Metrics: cell %d sampled another time grid than cell 0" c)
    in
    Array.iteri
      (fun c r ->
        if Rows.kept r <> n then mismatch c;
        Rows.iter r (fun pos slot ->
            let a = Rows.chunk r slot and b = Rows.base r slot in
            if c = 0 then times.(pos) <- a.(b) else if a.(b) <> times.(pos) then mismatch c;
            let row = sums.(pos) in
            for j = 0 to ncols - 1 do
              row.(j) <- row.(j) + a.(b + 1 + j)
            done))
      t.rows;
    List.init n (fun pos -> (times.(pos), sums.(pos)))
  end

let sample_count t = if Array.length t.rows = 0 then 0 else Rows.kept t.rows.(0)

let dropped t = Array.fold_left max 0 t.folded

(* --- export ---------------------------------------------------------- *)

(* Sample rows as ["time,v1,v2..."] bodies, [sep] between rows. *)
let add_rows buf ~pre ~post ~sep t =
  List.iteri
    (fun i (time, row) ->
      if i > 0 then Buffer.add_string buf sep;
      Buffer.add_string buf pre;
      Buffer.add_string buf (string_of_int time);
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int v))
        row;
      Buffer.add_string buf post)
    (samples t)

let csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time";
  List.iter
    (fun name ->
      Buffer.add_char buf ',';
      Buffer.add_string buf name)
    (columns t);
  Buffer.add_char buf '\n';
  add_rows buf ~pre:"" ~post:"\n" ~sep:"" t;
  Buffer.contents buf

(* %.17g round-trips any float but prints integers without noise. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":\"mgs-metrics-1\",\"interval\":%d,\"dropped\":%d,\"series\":["
       (interval t) (dropped t));
  Buffer.add_string buf
    (String.concat "," (List.map (fun name -> "\"" ^ Json.escape name ^ "\"") (columns t)));
  Buffer.add_string buf "],\"samples\":[";
  add_rows buf ~pre:"\n[" ~post:"]" ~sep:"," t;
  Buffer.add_string buf "\n],\"histograms\":[";
  let hists =
    List.sort compare (Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists [])
  in
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (name, h) ->
            Printf.sprintf "\n{\"name\":\"%s\",\"count\":%d,\"mean\":%s,\"max\":%d}"
              (Json.escape name) (Hist.count h)
              (float_str (Hist.mean h))
              (Hist.max_value h))
          hists));
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_json t oc = output_string oc (json t)

let write_csv t oc = output_string oc (csv t)
