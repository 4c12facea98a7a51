(* Binary min-heap over canonical genealogy keys.

   The engine orders every event by the key
   [(fire, sched, src, seq, parent)], which reproduces the reference
   order — one global clock, ties broken by a global insertion
   counter:

   - [fire]   absolute simulated time the event runs at;
   - [sched]  the scheduling shard's clock when the event was created
     (events created at an earlier clock were inserted earlier, so
     they win fire-time ties);
   - [src]    the scheduling shard's id;
   - [seq]    the scheduling shard's private counter (program order
     within one shard — the common, O(1) tie-break);
   - [parent] the key of the event that created this one.  When two
     events tie on [(fire, sched)] but come from different shards, the
     reference order runs them in the order their creators ran; the
     creators' keys encode exactly that, so the tie recurses into them.
     The recursion terminates: creators fired strictly earlier or were
     host-scheduled roots, which carry the [no_parent] sentinel and
     sort before execution-created peers (pre-run insertions come
     first).

   A creator's position in that order is all the recursion asks of
   it, so once a key has executed it can carry the position instead of
   its ancestry: [rank k r] overwrites [seq] with [r] and points
   [parent] at the [ranked] sentinel.  Two ranked keys compare by rank
   alone, a pending key's parent tie is one integer comparison, and the
   executed key no longer keeps its creator — nor anything older —
   reachable.  The canonical-global drain ranks every key it pops, so
   a fiber's pending event costs two small records whatever its
   history.  Windowed drains rank nothing: their executed keys keep
   their parents and compare by recursion, which ends at a ranked key
   or a root. *)

type key = {
  k_fire : int;
  k_sched : int;
  k_src : int;
  mutable k_seq : int; (* the rank once ranked *)
  mutable k_parent : key; (* physically [no_parent] for roots, [ranked] once ranked *)
  (* the event's payload, which [pop_min] clears: a thunk or a timed
     callback, the other a no-op *)
  mutable k_fn : unit -> unit;
  mutable k_timed : int -> unit;
}

let nop () = ()

let nop_timed (_ : int) = ()

let rec no_parent =
  { k_fire = min_int; k_sched = min_int; k_src = -1; k_seq = -1; k_parent = no_parent;
    k_fn = nop; k_timed = nop_timed }

let rec ranked =
  { k_fire = min_int; k_sched = min_int; k_src = -1; k_seq = -1; k_parent = ranked;
    k_fn = nop; k_timed = nop_timed }

let event ~fire ~sched ~src ~seq ~parent fn timed =
  { k_fire = fire; k_sched = sched; k_src = src; k_seq = seq; k_parent = parent;
    k_fn = fn; k_timed = timed }

let key ~fire ~sched ~src ~seq ~parent = event ~fire ~sched ~src ~seq ~parent nop nop_timed

let refire k ~fire = { k with k_fire = fire }

let rank k r =
  k.k_seq <- r;
  k.k_parent <- ranked

let rec cmp_key a b =
  if a == b then 0
  else
    let c = compare a.k_fire b.k_fire in
    if c <> 0 then c
    else
      let c = compare a.k_sched b.k_sched in
      if c <> 0 then c
      else if a.k_parent == ranked then
        (* ranks are execution order.  Keys are only ever compared
           pending with pending (the heap) or executed with executed
           (parents, observability stamps), and an unranked executed
           key ran in or after the first windowed drain, so after
           every ranked one. *)
        if b.k_parent == ranked then compare a.k_seq b.k_seq else -1
      else if b.k_parent == ranked then 1
      else if a.k_src = b.k_src then compare a.k_seq b.k_seq
      else if a.k_parent == no_parent then
        if b.k_parent == no_parent then compare a.k_src b.k_src else -1
      else if b.k_parent == no_parent then 1
      else
        let c = cmp_key a.k_parent b.k_parent in
        if c <> 0 then c
        else
          (* distinct events from different shards always have distinct
             creators, so this is unreachable; keep the order total. *)
          let c = compare a.k_src b.k_src in
          if c <> 0 then c else compare a.k_seq b.k_seq

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

(* strict key order: [a] fires before [b].  Fire time and scheduling
   clock decide almost every comparison inline; only a tie on both
   takes the genealogy walk. *)
let before a b =
  if a.k_fire <> b.k_fire then a.k_fire < b.k_fire
  else if a.k_sched <> b.k_sched then a.k_sched < b.k_sched
  else cmp_key a b < 0

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
