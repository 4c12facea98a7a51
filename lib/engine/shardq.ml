(* Binary min-heap of integer event keys over a payload slab; see the
   interface for the order and the argument that makes it the same at
   every job count. *)

let seq_bits = 42

let max_shards = 1 lsl (Sys.int_size - 1 - seq_bits)

let max_seq = (1 lsl seq_bits) - 1

let pack ~src ~seq =
  if src < 0 || src >= max_shards || seq < 0 || seq > max_seq then
    invalid_arg "Shardq.pack: src or seq out of range";
  (src lsl seq_bits) lor seq

type key = { k_fire : int; k_sched : int; k_src : int; k_seq : int }

let key ~fire ~sched ~src ~seq ~parent:_ =
  { k_fire = fire; k_sched = sched; k_src = src; k_seq = seq }

let no_parent = { k_fire = min_int; k_sched = min_int; k_src = -1; k_seq = -1 }

let nop () = ()

let nop_timed (_ : int) = ()

type t = {
  mutable h : int array; (* entry i: fire at 3i, sched at 3i+1, slot at 3i+2 *)
  mutable n : int;
  (* the slab, by slot; a free slot's payloads are the no-ops *)
  mutable srcseq : int array;
  mutable own : int array;
  mutable msgs : int array;
  mutable fns : (unit -> unit) array;
  mutable timeds : (int -> unit) array;
  mutable free : int array; (* the free slots, in [0, capacity - n) *)
  (* the last peeked or popped event *)
  mutable p_fire : int;
  mutable p_sched : int;
  mutable p_srcseq : int;
  mutable p_own : int;
  mutable p_timed : int -> unit;
}

(* Empty until its first event: at one job the per-shard heaps stay
   unused, and at setup a heap costs only its record. *)
let create () =
  {
    h = [||];
    n = 0;
    srcseq = [||];
    own = [||];
    msgs = [||];
    fns = [||];
    timeds = [||];
    free = [||];
    p_fire = 0;
    p_sched = 0;
    p_srcseq = 0;
    p_own = -1;
    p_timed = nop_timed;
  }

let length q = q.n

let is_empty q = q.n = 0

let min_fire q = if q.n = 0 then max_int else Array.unsafe_get q.h 0

let grow q =
  let cap = Array.length q.own in
  let ncap = max 16 (2 * cap) in
  let extend a k fill =
    Array.init (k * ncap) (fun i -> if i < Array.length a then a.(i) else fill)
  in
  q.h <- extend q.h 3 0;
  q.srcseq <- extend q.srcseq 1 0;
  q.own <- extend q.own 1 0;
  q.msgs <- extend q.msgs 1 0;
  q.fns <- extend q.fns 1 nop;
  q.timeds <- extend q.timeds 1 nop_timed;
  (* every old slot is in use: the free slots are the new ones *)
  q.free <- Array.init ncap (fun i -> if i < ncap - cap then cap + i else 0)

(* Order on a [(fire, sched)] tie: [sched], then the slab's packed
   [src]/[seq] of slots [sa] and [sb]. *)
let[@inline] tie_before q sc sa sj sb =
  sc < sj || (sc = sj && Array.unsafe_get q.srcseq sa < Array.unsafe_get q.srcseq sb)

(* The entry [(f, sc, slot sl)] sorts before heap entry [j].  Entry
   [j]'s sched and slot are read only when the fire times tie. *)
let[@inline] before q f sc sl j =
  let h = q.h in
  let fj = Array.unsafe_get h (3 * j) in
  f < fj
  || f = fj
     && tie_before q sc sl (Array.unsafe_get h ((3 * j) + 1)) (Array.unsafe_get h ((3 * j) + 2))

(* Heap entry [a] sorts before heap entry [b]. *)
let[@inline] entry_before q a b =
  let h = q.h in
  let fa = Array.unsafe_get h (3 * a) and fb = Array.unsafe_get h (3 * b) in
  fa < fb
  || fa = fb
     && tie_before q
          (Array.unsafe_get h ((3 * a) + 1))
          (Array.unsafe_get h ((3 * a) + 2))
          (Array.unsafe_get h ((3 * b) + 1))
          (Array.unsafe_get h ((3 * b) + 2))

let[@inline] set q i f sc sl =
  let h = q.h in
  Array.unsafe_set h (3 * i) f;
  Array.unsafe_set h ((3 * i) + 1) sc;
  Array.unsafe_set h ((3 * i) + 2) sl

let[@inline] move q ~from i =
  let h = q.h in
  set q i (Array.unsafe_get h (3 * from))
    (Array.unsafe_get h ((3 * from) + 1))
    (Array.unsafe_get h ((3 * from) + 2))

(* The sifts move a hole and write the sifted entry once, where it
   lands; every store is an int store, so no level pays a write
   barrier. *)
let rec sift_up q i f sc sl =
  let p = (i - 1) / 2 in
  if i > 0 && before q f sc sl p then begin
    move q ~from:p i;
    sift_up q p f sc sl
  end
  else set q i f sc sl

let rec sift_down q i f sc sl =
  let l = (2 * i) + 1 in
  if l >= q.n then set q i f sc sl
  else begin
    let c = if l + 1 < q.n && entry_before q (l + 1) l then l + 1 else l in
    if before q f sc sl c then set q i f sc sl
    else begin
      move q ~from:c i;
      sift_down q c f sc sl
    end
  end

(* A free slot holds the no-ops, so only a real payload is written.  A
   slot from the free list is always in range. *)
let add q ~fire ~sched ~srcseq ~own ~msg fn timed =
  if q.n = Array.length q.own then grow q;
  let slot = q.free.(Array.length q.own - q.n - 1) in
  Array.unsafe_set q.srcseq slot srcseq;
  Array.unsafe_set q.own slot own;
  Array.unsafe_set q.msgs slot msg;
  if fn != nop then Array.unsafe_set q.fns slot fn;
  if timed != nop_timed then Array.unsafe_set q.timeds slot timed;
  q.n <- q.n + 1;
  sift_up q (q.n - 1) fire sched slot

let push q ~key ~own fn =
  add q ~fire:key.k_fire ~sched:key.k_sched
    ~srcseq:(pack ~src:key.k_src ~seq:key.k_seq)
    ~own ~msg:(-1) fn nop_timed

exception Empty_queue

let peek q =
  if q.n = 0 then raise Empty_queue;
  let h = q.h in
  let slot = Array.unsafe_get h 2 in
  q.p_fire <- Array.unsafe_get h 0;
  q.p_sched <- Array.unsafe_get h 1;
  q.p_srcseq <- Array.unsafe_get q.srcseq slot;
  q.p_own <- Array.unsafe_get q.own slot;
  Array.unsafe_get q.msgs slot

let pop_min q =
  if q.n = 0 then raise Empty_queue;
  let h = q.h in
  let slot = Array.unsafe_get h 2 in
  let fn = Array.unsafe_get q.fns slot and timed = Array.unsafe_get q.timeds slot in
  if fn != nop then Array.unsafe_set q.fns slot nop;
  if timed != nop_timed then Array.unsafe_set q.timeds slot nop_timed;
  q.p_timed <- timed;
  let last = q.n - 1 in
  q.n <- last;
  q.free.(Array.length q.own - last - 1) <- slot;
  if last > 0 then sift_down q 0 h.(3 * last) h.((3 * last) + 1) h.((3 * last) + 2);
  fn

(* The root keeps its slot and payload; one sift puts it in place. *)
let rekey_min q ~fire ~sched ~srcseq =
  if q.n = 0 then raise Empty_queue;
  let slot = Array.unsafe_get q.h 2 in
  Array.unsafe_set q.srcseq slot srcseq;
  Array.unsafe_set q.msgs slot (-1);
  sift_down q 0 fire sched slot

let take_timed q =
  let k = q.p_timed in
  if k != nop_timed then q.p_timed <- nop_timed;
  k

let popped_fire q = q.p_fire

let popped_sched q = q.p_sched

let popped_srcseq q = q.p_srcseq

let popped_own q = q.p_own
