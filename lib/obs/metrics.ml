(* Typed metrics registry + simulated-clock sampler, sharded per SSMP.

   Counters, probes, and histograms register under a name plus optional
   labels (SSMP, engine, ...).  Counter storage is per-cell (one cell per
   engine shard): an increment lands in the writing shard's cell, so
   under the parallel engine nothing on the hot path is shared.  Exports
   merge the cells pointwise.

   Sampling runs on a fixed boundary grid: row k is taken at simulated
   time k*interval, snapshotted by the first event in each cell whose
   time has reached that boundary (crossed boundaries are back-filled
   with the then-current values — correct, because no event of that
   cell ran in between).  A cell's pre-event state at a boundary is a
   pure function of that cell's executed-event prefix, which the engine
   keeps identical across job counts, so the merged time-series is
   byte-identical across job counts.  The final
   {!sample} fills every cell to the last crossed boundary and appends
   one row at the exact end time.

   The ring bound applies per cell: a run of any length cannot grow
   memory without bound, and the most recent window is kept. *)

type counter = { ca : int array }

type kind =
  | Kcounter of int array
  | Kprobe_cell of (int -> float) (* polled per cell, shard-local read *)

type series = { s_name : string; s_kind : kind }

type mcell = {
  rows : (int * float array) Ring.t;
  mutable last_b : int; (* highest boundary index filled; -1 initially *)
  mutable last : (int * float array) option; (* most recent row pushed *)
}

type t = {
  interval : int;
  ncells : int;
  mutable series : series list; (* reverse registration order *)
  mutable sealed : bool; (* set at first row: columns are frozen *)
  by_name : (string, unit) Hashtbl.t;
  counters : (string, counter) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  mcells : mcell array;
}

let default_interval = 10_000

let create ?(interval = default_interval) ?(max_samples = 4096) ?(cells = 1) () =
  if interval <= 0 then invalid_arg "Metrics.create: interval";
  if cells < 1 then invalid_arg "Metrics.create: cells";
  {
    interval;
    ncells = cells;
    series = [];
    sealed = false;
    by_name = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 32;
    mcells =
      Array.init cells (fun _ ->
          { rows = Ring.create ~capacity:max_samples; last_b = -1; last = None });
  }

let interval t = t.interval

let cells t = t.ncells

(* "name{k=v,k2=v2}": labels are sorted so the same set always yields
   the same series name. *)
let full_name name labels =
  match labels with
  | [] -> name
  | l ->
    let l = List.sort compare l in
    name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let add_series t name kind =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Metrics: duplicate series %s" name);
  if t.sealed then
    invalid_arg (Printf.sprintf "Metrics: cannot register %s after sampling started" name);
  Hashtbl.replace t.by_name name ();
  t.series <- { s_name = name; s_kind = kind } :: t.series

let counter t ?(labels = []) name =
  let key = full_name name labels in
  match Hashtbl.find_opt t.counters key with
  | Some c -> c
  | None ->
    let c = { ca = Array.make t.ncells 0 } in
    add_series t key (Kcounter c.ca);
    Hashtbl.replace t.counters key c;
    c

let incr ?(by = 1) c =
  let cell = Mgs_engine.Sim.cur () in
  let cell = if cell < 0 || cell >= Array.length c.ca then 0 else cell in
  c.ca.(cell) <- c.ca.(cell) + by

let counter_value c = Array.fold_left ( + ) 0 c.ca

let histogram t ?(labels = []) name =
  let key = full_name name labels in
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.replace t.hists key h;
    h

let observe h v = Hist.add h v

let probe_cell t ?(labels = []) name read =
  add_series t (full_name name labels) (Kprobe_cell read)

let columns t = List.rev_map (fun s -> s.s_name) t.series

let read_series s ~cell =
  match s.s_kind with
  | Kcounter ca -> float_of_int ca.(cell)
  | Kprobe_cell f -> f cell

let snapshot t ~cell =
  let cols = List.rev t.series in
  Array.of_list (List.map (read_series ~cell) cols)

(* Append a row for [cell] at [time]; a repeat of the last row's time
   overwrites it in place (the end-of-run sample landing exactly on a
   boundary refreshes that boundary's row rather than duplicating it). *)
let push_row t cell ~time =
  t.sealed <- true;
  let mc = t.mcells.(cell) in
  match mc.last with
  | Some (lt, arr) when lt = time ->
    let fresh = snapshot t ~cell in
    Array.blit fresh 0 arr 0 (Array.length arr)
  | _ ->
    let arr = snapshot t ~cell in
    Ring.push mc.rows (time, arr);
    mc.last <- Some (time, arr)

let fill_boundaries t cell ~now =
  let b = now / t.interval in
  let mc = t.mcells.(cell) in
  if b > mc.last_b then begin
    for k = mc.last_b + 1 to b do
      push_row t cell ~time:(k * t.interval)
    done;
    mc.last_b <- b
  end

(* Pre-event hook: called with the executing event's shard and time
   before the event runs, so a crossed boundary is captured with the
   state as of the end of the previous event — identical whichever
   engine mode interleaved the other shards. *)
let on_event t ~cell ~now =
  let cell = if cell < 0 || cell >= t.ncells then 0 else cell in
  fill_boundaries t cell ~now

let tick t ~now = on_event t ~cell:0 ~now

let sample t ~now =
  for cell = 0 to t.ncells - 1 do
    fill_boundaries t cell ~now;
    push_row t cell ~time:now
  done

(* Merge the per-cell time-series by time union, carrying each cell's
   most recent row forward (zeros before its first row), and summing
   pointwise.  With the boundary grid every cell has the same times, so
   this degenerates to a columnwise zip-sum. *)
let merged_samples t =
  if t.ncells = 1 then Ring.to_list t.mcells.(0).rows
  else begin
    let ncols = List.length t.series in
    let rows = Array.map (fun mc -> Array.of_list (Ring.to_list mc.rows)) t.mcells in
    let idx = Array.make t.ncells 0 in
    let carry = Array.make_matrix t.ncells ncols 0. in
    let out = ref [] in
    let exhausted () =
      let all = ref true in
      Array.iteri (fun c r -> if idx.(c) < Array.length r then all := false) rows;
      !all
    in
    while not (exhausted ()) do
      let tmin = ref max_int in
      Array.iteri
        (fun c r ->
          if idx.(c) < Array.length r then begin
            let time, _ = r.(idx.(c)) in
            if time < !tmin then tmin := time
          end)
        rows;
      Array.iteri
        (fun c r ->
          if idx.(c) < Array.length r then begin
            let time, row = r.(idx.(c)) in
            if time = !tmin then begin
              Array.blit row 0 carry.(c) 0 ncols;
              idx.(c) <- idx.(c) + 1
            end
          end)
        rows;
      let sum = Array.make ncols 0. in
      Array.iter (fun cr -> Array.iteri (fun j v -> sum.(j) <- sum.(j) +. v) cr) carry;
      out := (!tmin, sum) :: !out
    done;
    List.rev !out
  end

let samples t = merged_samples t

let sample_count t = List.length (merged_samples t)

let dropped t = Array.fold_left (fun acc mc -> max acc (Ring.dropped mc.rows)) 0 t.mcells

(* --- export ---------------------------------------------------------- *)

(* %.17g round-trips any float but prints integers (the common case:
   counts) without noise. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time";
  List.iter
    (fun name ->
      Buffer.add_char buf ',';
      Buffer.add_string buf name)
    (columns t);
  Buffer.add_char buf '\n';
  List.iter
    (fun (time, row) ->
      Buffer.add_string buf (string_of_int time);
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (float_str v))
        row;
      Buffer.add_char buf '\n')
    (merged_samples t);
  Buffer.contents buf

let json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":\"mgs-metrics-1\",\"interval\":%d,\"dropped\":%d,\"series\":["
       t.interval (dropped t));
  let first = ref true in
  List.iter
    (fun name ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (Json.escape name);
      Buffer.add_char buf '"')
    (columns t);
  Buffer.add_string buf "],\"samples\":[";
  let first = ref true in
  List.iter
    (fun (time, row) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n[";
      Buffer.add_string buf (string_of_int time);
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (float_str v))
        row;
      Buffer.add_char buf ']')
    (merged_samples t);
  Buffer.add_string buf "\n],\"histograms\":[";
  let hists =
    List.sort compare (Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists [])
  in
  let first = ref true in
  List.iter
    (fun (name, h) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":\"%s\",\"count\":%d,\"mean\":%s,\"max\":%d}"
           (Json.escape name) (Hist.count h)
           (float_str (Hist.mean h))
           (Hist.max_value h)))
    hists;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_json t oc = output_string oc (json t)

let write_csv t oc = output_string oc (csv t)
