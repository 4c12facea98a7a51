let pad s w =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let render ~header ~rows =
  let ncols = List.fold_left (fun m r -> max m (List.length r)) (List.length header) rows in
  let fill r = r @ List.init (ncols - List.length r) (fun _ -> "") in
  let all = fill header :: List.map fill rows in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row in
  List.iter measure all;
  let line row = String.concat "  " (List.mapi (fun i c -> pad c widths.(i)) row) in
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let body = List.map line (List.tl all) in
  String.concat "\n" ((line (List.hd all) :: rule :: body) @ [ "" ])

let print ~header ~rows = print_string (render ~header ~rows)

let fmt_cycles v =
  let a = Float.abs v in
  if a >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.2fK" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fill_chars = [| '#'; '='; '+'; '.'; '~'; '%' |]

let stacked_bars ~title ~labels ~series_names ~values =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let totals = Array.map (Array.fold_left ( +. ) 0.) values in
  let maxv = Array.fold_left Float.max 1e-9 totals in
  let label_w = List.fold_left (fun m l -> max m (String.length l)) 0 labels in
  List.iteri
    (fun i label ->
      Buffer.add_string buf (pad label label_w);
      Buffer.add_string buf " |";
      Array.iteri
        (fun j v ->
          let n = int_of_float (Float.round (v /. maxv *. 60.)) in
          Buffer.add_string buf (String.make n fill_chars.(j mod Array.length fill_chars)))
        values.(i);
      Buffer.add_string buf (Printf.sprintf "  %s\n" (fmt_cycles totals.(i))))
    labels;
  Buffer.add_string buf "legend: ";
  List.iteri
    (fun j name ->
      if j > 0 then Buffer.add_string buf "  ";
      Buffer.add_char buf fill_chars.(j mod Array.length fill_chars);
      Buffer.add_char buf '=';
      Buffer.add_string buf name)
    series_names;
  Buffer.add_char buf '\n';
  Buffer.contents buf
