(* One cell of the chunked row store behind {!Trace}, {!Span} and
   {!Metrics}; see the interface for the contract. *)

(* A cell's last chunk is allocated whole and partly filled: at 256
   rows a twelve-int chunk is 24 KiB of fields and 6 KiB of stamps, so
   a store of few rows over many cells wastes little. *)
let chunk_rows = 256

let stamp_width = 3

type t = {
  width : int;
  cap : int;
  ring : bool; (* full: overwrite the oldest row (true) or drop new ones *)
  ints : int array array; (* chunk directory; [||] until first use *)
  stamps : int array array;
      (* same layout, {!stamp_width} ints a row; [||] when unstamped *)
  mutable n : int; (* rows ever added, dropped ones included *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array; (* label id -> label *)
}

let cur_cell ncells =
  let c = Mgs_engine.Sim.cur () in
  if c < 0 || c >= ncells then 0 else c

let create ~width ~capacity ~cells ~ring =
  let cap = Int.max (Int.min capacity 64) ((capacity + cells - 1) / cells) in
  let nchunks = (cap + chunk_rows - 1) / chunk_rows in
  {
    width;
    cap;
    ring;
    ints = Array.make nchunks [||];
    stamps = Array.make (if cells > 1 then nchunks else 0) [||];
    n = 0;
    ids = Hashtbl.create 32;
    names = Array.make 32 "";
  }

let add r =
  let n = r.n in
  r.n <- n + 1;
  if n < r.cap then begin
    let ci = n / chunk_rows in
    if Array.length r.ints.(ci) = 0 then begin
      let rows = Int.min chunk_rows (r.cap - (ci * chunk_rows)) in
      r.ints.(ci) <- Array.make (rows * r.width) 0;
      if Array.length r.stamps > 0 then r.stamps.(ci) <- Array.make (rows * stamp_width) 0
    end;
    n
  end
  else if r.ring then n mod r.cap
  else -1

let chunk r slot = r.ints.(slot / chunk_rows)

let base r slot = slot mod chunk_rows * r.width

let get r slot f = (chunk r slot).(base r slot + f)

let set_stamp r slot ~fire ~sched ~srcseq =
  let a = r.stamps.(slot / chunk_rows) and b = slot mod chunk_rows * stamp_width in
  a.(b) <- fire;
  a.(b + 1) <- sched;
  a.(b + 2) <- srcseq

(* Lexicographic over the three stamp ints. *)
let cmp_stamp r1 s1 r2 s2 =
  let a1 = r1.stamps.(s1 / chunk_rows) and b1 = s1 mod chunk_rows * stamp_width in
  let a2 = r2.stamps.(s2 / chunk_rows) and b2 = s2 mod chunk_rows * stamp_width in
  let c = Int.compare a1.(b1) a2.(b2) in
  if c <> 0 then c
  else
    let c = Int.compare a1.(b1 + 1) a2.(b2 + 1) in
    if c <> 0 then c else Int.compare a1.(b1 + 2) a2.(b2 + 2)

let added r = r.n

let kept r = Int.min r.n r.cap

let dropped r = r.n - kept r

let truncate r n =
  if n < 0 || n > r.n || r.n > r.cap then invalid_arg "Rows.truncate";
  r.n <- n

let iter r f =
  let start = if r.ring && r.n > r.cap then r.n mod r.cap else 0 in
  for i = 0 to kept r - 1 do
    f i ((start + i) mod r.cap)
  done

let intern r s =
  match Hashtbl.find r.ids s with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length r.ids in
    Hashtbl.add r.ids s id;
    if id = Array.length r.names then
      r.names <- Array.init (2 * id) (fun i -> if i < id then r.names.(i) else "");
    r.names.(id) <- s;
    id

let name r id = r.names.(id)
