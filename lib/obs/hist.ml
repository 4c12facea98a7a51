(* Power-of-two bucketed histogram of nonnegative cycle counts.
   Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b). *)

let nbuckets = 63

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { counts = Array.make nbuckets 0; n = 0; sum = 0; vmin = max_int; vmax = min_int }

let bucket_of v =
  let rec go b x = if x = 0 then b else go (b + 1) (x lsr 1) in
  if v <= 0 then 0 else Int.min (go 0 v) (nbuckets - 1)

let add t v =
  let v = Int.max 0 v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

(* Fold [src] into [dst].  Bucket counts, totals, and extrema all merge
   exactly, so per-shard histograms combined at export equal the
   histogram a single store would have accumulated. *)
let merge ~into:dst src =
  for b = 0 to nbuckets - 1 do
    dst.counts.(b) <- dst.counts.(b) + src.counts.(b)
  done;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  if src.n > 0 then begin
    if src.vmin < dst.vmin then dst.vmin <- src.vmin;
    if src.vmax > dst.vmax then dst.vmax <- src.vmax
  end

let count t = t.n

let sum t = t.sum

let min_value t = if t.n = 0 then 0 else t.vmin

let max_value t = if t.n = 0 then 0 else t.vmax

let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

(* (lo, hi, count) for each nonempty bucket, ascending; hi inclusive. *)
let buckets t =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.counts.(b) > 0 then begin
      let lo = if b = 0 then 0 else 1 lsl (b - 1) in
      let hi = if b = 0 then 0 else (1 lsl b) - 1 in
      acc := (lo, hi, t.counts.(b)) :: !acc
    end
  done;
  !acc

(* Nearest-rank percentile resolved to its containing bucket: the
   [ceil (q * n)]-th smallest sample lies within the returned
   [(lo, hi)] interval (hi inclusive).  The raw bucket bounds are
   tightened by the recorded extrema, so a single-sample or
   single-bucket histogram with equal extrema answers exactly. *)
let percentile_bounds t q =
  if t.n = 0 then (0, 0)
  else begin
    let q = if q > 1. then 1. else q in
    let rank = int_of_float (ceil (q *. float_of_int t.n)) in
    let rank = if rank < 1 then 1 else if rank > t.n then t.n else rank in
    let b = ref 0 and seen = ref 0 in
    while !seen + t.counts.(!b) < rank do
      seen := !seen + t.counts.(!b);
      incr b
    done;
    let lo = if !b = 0 then 0 else 1 lsl (!b - 1) in
    let hi = if !b = 0 then 0 else (1 lsl !b) - 1 in
    (Int.max lo t.vmin, Int.min hi t.vmax)
  end

(* Upper bound of {!percentile_bounds} — a pessimistic point estimate. *)
let percentile t q = snd (percentile_bounds t q)

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else begin
    Format.fprintf ppf "n=%d mean=%.0f min=%d max=%d" t.n (mean t) (min_value t)
      (max_value t);
    List.iter (fun (lo, hi, c) -> Format.fprintf ppf " [%d-%d]:%d" lo hi c) (buckets t)
  end
