(* Binary min-heap over event keys; see the interface for the order
   and the argument that makes it the same at every job count. *)

type key = {
  k_fire : int;
  k_sched : int;
  k_src : int;
  k_seq : int;
  (* the event's payload, which [pop_min] clears: a thunk or a timed
     callback, the other a no-op *)
  mutable k_fn : unit -> unit;
  mutable k_timed : int -> unit;
}

let nop () = ()

let nop_timed (_ : int) = ()

let no_parent =
  { k_fire = min_int; k_sched = min_int; k_src = -1; k_seq = -1; k_fn = nop; k_timed = nop_timed }

let event ~fire ~sched ~src ~seq fn timed =
  { k_fire = fire; k_sched = sched; k_src = src; k_seq = seq; k_fn = fn; k_timed = timed }

let key ~fire ~sched ~src ~seq ~parent:_ = event ~fire ~sched ~src ~seq nop nop_timed

let refire k ~fire = { k with k_fire = fire }

let cmp_key a b =
  if a.k_fire <> b.k_fire then Int.compare a.k_fire b.k_fire
  else if a.k_sched <> b.k_sched then Int.compare a.k_sched b.k_sched
  else if a.k_src <> b.k_src then Int.compare a.k_src b.k_src
  else Int.compare a.k_seq b.k_seq

type t = {
  mutable keys : key array;
  mutable own : int array; (* shard that will execute the event *)
  mutable n : int;
  mutable popped_key : key;
  mutable popped_own : int;
  mutable popped_timed : int -> unit;
}

let create () =
  let cap = 64 in
  {
    keys = Array.make cap no_parent;
    own = Array.make cap 0;
    n = 0;
    popped_key = no_parent;
    popped_own = -1;
    popped_timed = nop_timed;
  }

let length q = q.n

let is_empty q = q.n = 0

let min_fire q = if q.n = 0 then max_int else q.keys.(0).k_fire

(* strict key order: [a] fires before [b] *)
let before a b =
  if a.k_fire <> b.k_fire then a.k_fire < b.k_fire
  else if a.k_sched <> b.k_sched then a.k_sched < b.k_sched
  else if a.k_src <> b.k_src then a.k_src < b.k_src
  else a.k_seq < b.k_seq

let grow q =
  let cap = Array.length q.keys in
  let ncap = cap * 2 in
  let keys = Array.make ncap no_parent in
  Array.blit q.keys 0 keys 0 cap;
  q.keys <- keys;
  let own = Array.make ncap 0 in
  Array.blit q.own 0 own 0 cap;
  q.own <- own

(* The sifts move a hole instead of swapping: each level writes one key
   and one shard, and the sifted key is written once where it lands —
   the same comparisons as a swapping sift, so the same heap. *)
let rec sift_up q i key own =
  let p = (i - 1) / 2 in
  if i > 0 && before key q.keys.(p) then begin
    q.keys.(i) <- q.keys.(p);
    q.own.(i) <- q.own.(p);
    sift_up q p key own
  end
  else begin
    q.keys.(i) <- key;
    q.own.(i) <- own
  end

let rec sift_down q i key own =
  let l = (2 * i) + 1 in
  let s = if l + 1 < q.n && before q.keys.(l + 1) q.keys.(l) then l + 1 else l in
  if l < q.n && before q.keys.(s) key then begin
    q.keys.(i) <- q.keys.(s);
    q.own.(i) <- q.own.(s);
    sift_down q s key own
  end
  else begin
    q.keys.(i) <- key;
    q.own.(i) <- own
  end

let insert q ~key ~own =
  if q.n = Array.length q.keys then grow q;
  q.n <- q.n + 1;
  sift_up q (q.n - 1) key own

let push q ~key ~own fn =
  key.k_fn <- fn;
  insert q ~key ~own

exception Empty_queue

let pop_min q =
  if q.n = 0 then raise Empty_queue;
  let k = q.keys.(0) in
  let f = k.k_fn in
  q.popped_key <- k;
  q.popped_own <- q.own.(0);
  q.popped_timed <- k.k_timed;
  k.k_fn <- nop;
  k.k_timed <- nop_timed;
  let last = q.n - 1 in
  let lk = q.keys.(last) and lo = q.own.(last) in
  q.keys.(last) <- no_parent;
  q.n <- last;
  if last > 0 then sift_down q 0 lk lo;
  f

let popped_key q = q.popped_key

let popped_fire q = q.popped_key.k_fire

let popped_own q = q.popped_own

let popped_timed q = q.popped_timed
