module Bitset = Mgs_util.Bitset

type page = float array

type twin = { t_data : page; t_dirty : Bitset.t }

type diff = { runs : int array; vals : floatarray }

(* Test hook: when [count_comparisons] is on, every word comparison made
   by the diff builders bumps [comparisons_made].  Off by default so the
   hot path pays one predictable branch. *)
let count_comparisons = ref false

let comparisons_made = ref 0

let reset_comparisons () = comparisons_made := 0

let comparisons () = !comparisons_made

let create (g : Geom.t) = Array.make g.page_words 0.

let copy = Array.copy

let blit ~src ~dst =
  if Array.length src <> Array.length dst then invalid_arg "Pagedata.blit: length mismatch";
  Array.blit src 0 dst 0 (Array.length src)

let twin_of p = { t_data = Array.copy p; t_dirty = Bitset.create (Array.length p) }

let twin_page t = t.t_data

let dirty_words t = Bitset.cardinal t.t_dirty

let mark t i = Bitset.add t.t_dirty i

let retwin t ~from =
  blit ~src:from ~dst:t.t_data;
  Bitset.clear t.t_dirty

let words_differ a b i =
  if !count_comparisons then incr comparisons_made;
  Int64.bits_of_float (Array.unsafe_get a i) <> Int64.bits_of_float (Array.unsafe_get b i)

(* Build a run-length diff of [p] against [base] from an increasing
   stream of candidate offsets, where [next src i] is the least
   candidate >= i, or -1.  Two passes over the stream: the first sizes
   the [runs] and [vals] arrays exactly, the second fills them.  Plain
   loops keep every counter local, so the diff record and its two
   arrays are all that is allocated. *)
let build p base next src =
  let nwords = ref 0 and nruns = ref 0 and prev = ref (-2) in
  let i = ref (next src 0) in
  while !i >= 0 do
    let j = !i in
    if words_differ p base j then begin
      incr nwords;
      if j <> !prev + 1 then incr nruns;
      prev := j
    end;
    i := next src (j + 1)
  done;
  let runs = Array.make (2 * !nruns) 0 in
  let vals = Float.Array.create !nwords in
  let r = ref (-1) and v = ref 0 in
  prev := -2;
  i := next src 0;
  while !i >= 0 do
    let j = !i in
    if words_differ p base j then begin
      if j <> !prev + 1 then begin
        incr r;
        runs.(2 * !r) <- j
      end;
      runs.((2 * !r) + 1) <- runs.((2 * !r) + 1) + 1;
      Float.Array.set vals !v (Array.unsafe_get p j);
      incr v;
      prev := j
    end;
    i := next src (j + 1)
  done;
  { runs; vals }

let diff p ~twin =
  if Array.length p <> Array.length twin.t_data then
    invalid_arg "Pagedata.diff: length mismatch";
  (* the dirty set over-approximates the words touched since the last
     twin sync, so only those need comparing *)
  build p twin.t_data Bitset.next twin.t_dirty

let next_word p i = if i < Array.length p then i else -1

let diff_full p ~against =
  if Array.length p <> Array.length against then invalid_arg "Pagedata.diff_full: length mismatch";
  build p against next_word p

let diff_size d = Float.Array.length d.vals

let diff_runs d = Array.length d.runs / 2

let apply_diff p d =
  let v = ref 0 in
  for r = 0 to (Array.length d.runs / 2) - 1 do
    let start = d.runs.(2 * r) and len = d.runs.((2 * r) + 1) in
    for j = 0 to len - 1 do
      Array.unsafe_set p (start + j) (Float.Array.get d.vals (!v + j))
    done;
    v := !v + len
  done

let iter_diff f d =
  let v = ref 0 in
  for r = 0 to (Array.length d.runs / 2) - 1 do
    let start = d.runs.(2 * r) and len = d.runs.((2 * r) + 1) in
    for j = 0 to len - 1 do
      f (start + j) (Float.Array.get d.vals (!v + j))
    done;
    v := !v + len
  done

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a
    || (Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && go (i + 1))
  in
  go 0
