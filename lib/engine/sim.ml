(* Discrete-event engine: one event partition ("shard") per SSMP
   cluster, synchronized conservatively with the inter-SSMP LAN
   latency as the lookahead window.

   Every event carries a key [(fire, sched, src, seq)] (see
   {!Shardq}) minted from the scheduling shard's clock, id and counter,
   [src] and [seq] packed in one int.  A heap holds keys as integers
   and payloads in a slab, so scheduling an event allocates nothing.
   The engine runs in one of two modes, chosen by the effective job
   count for the run:

   - {b one heap} (jobs = 1): a single heap over all shards in key
     order, drained on the calling domain.

   - {b windowed} (jobs >= 2): per-shard heaps drained concurrently on
     [jobs] domains between barriers.  Each window executes every event
     with [fire < T + lookahead] where [T] is the globally earliest
     pending fire time.  A cross-shard event waits in the scheduling
     shard's outbox, as integers beside its two payloads, and is merged
     into the destination heap at the barrier; because the LAN delivers
     cross-SSMP work no earlier than [send + lookahead], a message
     created inside a window always fires at or after the window's end,
     so each shard runs its events in key order, as under the one heap
     — which is what makes the two modes produce byte-identical
     results.  A window needs a positive width, so a zero lookahead
     always runs one heap.

   Shard-local clocks, counters and statistics are only ever touched by
   the domain currently running that shard; the window barrier's mutex
   publishes them between domains. *)

type time = int

type shard = {
  id : int;
  q : Shardq.t; (* per-shard heap (windowed mode) *)
  mutable clock : int;
  mutable ctr : int; (* scheduling counter: [seq] source *)
  mutable executed : int;
  mutable clamped : int; (* past-due schedules clamped to the clock *)
  mutable peak : int;
  (* cross-shard sends, merged at barriers: fire, sched, src/seq, dst
     shard and message word, five ints each, beside their payloads *)
  mutable out_ints : int array;
  mutable out_fns : (unit -> unit) array;
  mutable out_timeds : (int -> unit) array;
  mutable out_n : int;
  mutable failure : exn option; (* first exception raised while draining *)
  (* engine self-profiling; only the owning domain writes these *)
  mutable xsends : int; (* cross-shard sends originated by this shard *)
  mutable merges : int; (* outbox messages merged INTO this shard *)
  mutable stalls : int; (* windows in which this shard drained 0 events *)
}

type t = {
  mutable shards : shard array;
  mutable lookahead : int;
  mutable jobs : int; (* effective domains for the next run; >= 1 *)
  g : Shardq.t; (* the one heap (jobs = 1) *)
  mutable strict : bool;
  mutable gpeak : int;
  mutable windows : int; (* lookahead windows opened (windowed mode) *)
  mutable wall : float array;
      (* host seconds draining each shard, then waiting at barriers; unboxed *)
  mutable on_event : (shard:int -> now:int -> unit) option;
      (* called on the executing domain immediately before each event,
         after the shard clock and counters have advanced.  Used by the
         metrics sampler; the callback must only touch state owned by
         [shard] or the determinism contract breaks. *)
  mutable deliver : int -> int -> int; (* a message's finish; see [at_msg] *)
}

exception Late_delivery of { dst : int; fire : int; clock : int }

(* The event this domain is executing: its shard, -1 between events
   (host code), and its key, which the observability layer copies into
   every record so per-shard cells merge in key order at export.
   Domain-local so concurrent shards each see their own; a drain reads
   it once and rewrites its fields at every event. *)
type running = {
  mutable shard : int;
  mutable fire : int;
  mutable sched : int;
  mutable srcseq : int;
}

let running_dls : running Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { shard = -1; fire = 0; sched = 0; srcseq = 0 })

let running () = Domain.DLS.get running_dls

let cur () = (running ()).shard

let new_shard id =
  {
    id;
    q = Shardq.create ();
    clock = 0;
    ctr = 0;
    executed = 0;
    clamped = 0;
    peak = 0;
    out_ints = [||];
    out_fns = [||];
    out_timeds = [||];
    out_n = 0;
    failure = None;
    xsends = 0;
    merges = 0;
    stalls = 0;
  }

let create () =
  {
    shards = [| new_shard 0 |];
    lookahead = 0;
    jobs = 1;
    g = Shardq.create ();
    strict = false;
    gpeak = 0;
    windows = 0;
    wall = [| 0.; 0. |];
    on_event = None;
    deliver = (fun _ t -> t);
  }

let set_strict sim v = sim.strict <- v

let set_on_event sim h = sim.on_event <- h

let set_deliver sim f = sim.deliver <- f

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let now sim =
  let c = cur () in
  if c >= 0 then sim.shards.(c).clock
  else
    (* host view: the engine has advanced to the latest shard clock *)
    Array.fold_left (fun acc s -> max acc s.clock) 0 sim.shards

let events_executed sim = Array.fold_left (fun acc s -> acc + s.executed) 0 sim.shards

let pending sim =
  Shardq.length sim.g
  + Array.fold_left
      (fun acc s -> acc + Shardq.length s.q + s.out_n)
      0 sim.shards

let peak_pending sim =
  max sim.gpeak (Array.fold_left (fun acc s -> acc + s.peak) 0 sim.shards)

type stats = { s_executed : int; s_peak : int; s_clamped : int }

let stats sim =
  {
    s_executed = events_executed sim;
    s_peak = peak_pending sim;
    s_clamped = Array.fold_left (fun acc s -> acc + s.clamped) 0 sim.shards;
  }

(* Per-shard self-profiling snapshot.  [st_executed] and [st_xsends] are
   deterministic (a pure function of the simulated program); the rest
   depend on the job count, the host, and outbox timing, and are
   deliberately excluded from the byte-identity contract. *)
type shard_stat = {
  st_id : int;
  st_executed : int;
  st_xsends : int;
  st_clamped : int;
  st_peak : int;
  st_merges : int;
  st_stalls : int;
  st_wall : float;
}

let shard_stats sim =
  Array.map
    (fun s ->
      {
        st_id = s.id;
        st_executed = s.executed;
        st_xsends = s.xsends;
        st_clamped = s.clamped;
        st_peak = s.peak;
        st_merges = s.merges;
        st_stalls = s.stalls;
        st_wall = sim.wall.(s.id);
      })
    sim.shards

let windows sim = sim.windows

let barrier_wall sim = sim.wall.(Array.length sim.shards)

let shard_executed sim i = sim.shards.(i).executed

let shard_xsends sim i = sim.shards.(i).xsends

(* Repartition a simulator that has not scheduled anything yet. *)
let make_sharded sim ~nshards ~lookahead =
  if nshards <> Array.length sim.shards || lookahead <> sim.lookahead then begin
    if nshards < 1 then invalid_arg "Sim.make_sharded: nshards < 1";
    if nshards > Shardq.max_shards then invalid_arg "Sim.make_sharded: nshards too large";
    if lookahead < 0 then invalid_arg "Sim.make_sharded: lookahead < 0";
    if events_executed sim > 0 || pending sim > 0 then
      invalid_arg "Sim.make_sharded: events already scheduled";
    sim.shards <- Array.init nshards new_shard;
    sim.wall <- Array.make (nshards + 1) 0.;
    sim.lookahead <- lookahead;
    sim.jobs <- 1
  end

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let push_local sim ~fire ~sched ~srcseq ~own ~msg fn timed =
  if sim.jobs > 1 then begin
    let d = sim.shards.(own) in
    Shardq.add d.q ~fire ~sched ~srcseq ~own ~msg fn timed;
    let len = Shardq.length d.q in
    if len > d.peak then d.peak <- len
  end
  else begin
    Shardq.add sim.g ~fire ~sched ~srcseq ~own ~msg fn timed;
    let len = Shardq.length sim.g in
    if len > sim.gpeak then sim.gpeak <- len
  end

(* Park a cross-shard event until the barrier; the arrays only grow. *)
let outbox_add s ~fire ~sched ~srcseq ~dst ~msg fn timed =
  let n = s.out_n in
  if n = Array.length s.out_fns then begin
    s.out_ints <- Array.append s.out_ints (Array.make (5 * (n + 16)) 0);
    s.out_fns <- Array.append s.out_fns (Array.make (n + 16) Shardq.nop);
    s.out_timeds <- Array.append s.out_timeds (Array.make (n + 16) Shardq.nop_timed)
  end;
  let a = s.out_ints in
  a.(5 * n) <- fire;
  a.((5 * n) + 1) <- sched;
  a.((5 * n) + 2) <- srcseq;
  a.((5 * n) + 3) <- dst;
  a.((5 * n) + 4) <- msg;
  s.out_fns.(n) <- fn;
  s.out_timeds.(n) <- timed;
  s.out_n <- n + 1

(* The fire time of an event shard [s] schedules at [t]: past-due
   times are clamped to its clock and counted. *)
let clamp s t =
  if t < s.clock then begin
    s.clamped <- s.clamped + 1;
    s.clock
  end
  else t

(* Shard [s]'s next packed [src]/[seq] word. *)
let mint s =
  let srcseq = Shardq.pack ~src:s.id ~seq:s.ctr in
  s.ctr <- s.ctr + 1;
  srcseq

(* Schedule [fn] or [timed] (the other a no-op) and message word [msg]
   on shard [dst] at time [t], from shard [c] ([cur ()]).  The key is
   minted from the scheduling shard's clock, id and counter: inside an
   event, the executing shard's; host-side, the destination shard's. *)
let schedule sim c dst t ~msg fn timed =
  if dst < 0 || dst >= Array.length sim.shards then invalid_arg "Sim.at_shard: bad shard";
  let s = if c >= 0 then sim.shards.(c) else sim.shards.(dst) in
  let fire = clamp s t in
  let srcseq = mint s in
  if c >= 0 && c <> dst then s.xsends <- s.xsends + 1;
  if sim.jobs > 1 && c >= 0 && c <> dst then
    (* cross-shard send from inside an event: park in the outbox; the
       barrier merges it into [dst]'s heap before the next window *)
    outbox_add s ~fire ~sched:s.clock ~srcseq ~dst ~msg fn timed
  else push_local sim ~fire ~sched:s.clock ~srcseq ~own:dst ~msg fn timed

let at_shard sim ~shard t fn = schedule sim (cur ()) shard t ~msg:(-1) fn Shardq.nop_timed

let at_shard_k sim ~shard t k = schedule sim (cur ()) shard t ~msg:(-1) Shardq.nop k

let at_msg sim ~shard t ~msg k = schedule sim (cur ()) shard t ~msg Shardq.nop k

(* [at] without an explicit target: stay on the executing shard (the
   common case — timers, fiber resumptions, local protocol work).
   Host-side calls without a target land on shard 0. *)
let at sim t fn =
  let c = cur () in
  schedule sim c (Int.max 0 c) t ~msg:(-1) fn Shardq.nop_timed

let at_k sim t k =
  let c = cur () in
  schedule sim c (Int.max 0 c) t ~msg:(-1) Shardq.nop k

(* A message's arrival at [t]: [k] runs when the hook says its handler
   finishes. *)
let arrive sim ~msg t k = if msg < 0 then k t else at_k sim (sim.deliver msg t) k

let after sim d f =
  if d < 0 then invalid_arg "Sim.after: negative delay";
  at sim (now sim + d) f

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let limit_msg ~limit ~executed ~clock ~pending =
  Printf.sprintf
    "Sim.run: event limit exhausted (livelock?): limit=%d executed=%d clock=%d pending=%d"
    limit executed clock pending

(* One event: peek at the minimum of [q], advance its shard's clock,
   count it, record it in this domain's [r] as running, run the hook,
   then pop and call it — or, for a message, turn it into its
   continuation in place: the key {!arrive} would give it at the
   handler's finish, minted by the executing shard, whose heap is [q].
   Both drains use it. *)
let step sim q r =
  let msg = Shardq.peek q in
  let s = sim.shards.(Shardq.popped_own q) in
  let t = Shardq.popped_fire q in
  if t > s.clock then s.clock <- t;
  s.executed <- s.executed + 1;
  r.shard <- s.id;
  r.fire <- t;
  r.sched <- Shardq.popped_sched q;
  r.srcseq <- Shardq.popped_srcseq q;
  (match sim.on_event with Some h -> h ~shard:s.id ~now:t | None -> ());
  match
    if msg >= 0 then begin
      let fire = clamp s (sim.deliver msg t) in
      Shardq.rekey_min q ~fire ~sched:s.clock ~srcseq:(mint s)
    end
    else begin
      let fn = Shardq.pop_min q in
      let timed = Shardq.take_timed q in
      if timed == Shardq.nop_timed then fn () else timed t
    end
  with
  | () -> r.shard <- -1
  | exception e ->
    r.shard <- -1;
    raise e

(* jobs = 1: drain the one heap in key order. *)
let run_global sim ~limit =
  let n0 = events_executed sim in
  let r = running () in
  let rec go n =
    if n - n0 >= limit then
      failwith (limit_msg ~limit ~executed:n ~clock:(now sim) ~pending:(pending sim))
    else if Shardq.is_empty sim.g then n - n0
    else begin
      step sim sim.g r;
      go (n + 1)
    end
  in
  go n0

(* jobs >= 2: windowed execution on Domains.  Shard [i] is pinned to
   worker [i mod jobs] for the whole run so fiber continuations never
   migrate between domains mid-run. *)

(* Drain every event of [s] with [fire < wend].  [allow] bounds the
   number of events this one drain may execute (livelock guard: a shard
   stuck rescheduling itself inside one window would otherwise never
   reach the barrier). *)
let drain sim s ~wend ~allow =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  let r = running () in
  (try
     while Shardq.min_fire s.q < wend do
       if !n >= allow then
         failwith
           (limit_msg ~limit:allow ~executed:s.executed ~clock:s.clock
              ~pending:(Shardq.length s.q));
       step sim s.q r;
       incr n
     done
   with e -> s.failure <- Some e);
  if !n = 0 then s.stalls <- s.stalls + 1;
  sim.wall.(s.id) <- sim.wall.(s.id) +. (Unix.gettimeofday () -. t0);
  !n

(* Merge every outbox event into its destination heap.  Runs on the
   coordinating domain while the workers are parked at the barrier.
   Heap order comes from the keys, so merge order does not matter.  A
   message firing before its destination's clock means the lookahead
   argument was violated (an engine or cost-model bug, not a program
   bug): it moves to the destination's clock, is counted as a clamp
   there and, under strict mode, raised. *)
let merge sim ~fire ~sched ~srcseq ~dst ~msg fn timed =
  let d = sim.shards.(dst) in
  let fire =
    if fire >= d.clock then fire
    else begin
      d.clamped <- d.clamped + 1;
      if sim.strict then raise (Late_delivery { dst; fire; clock = d.clock });
      d.clock
    end
  in
  Shardq.add d.q ~fire ~sched ~srcseq ~own:dst ~msg fn timed;
  d.merges <- d.merges + 1;
  let len = Shardq.length d.q in
  if len > d.peak then d.peak <- len

let flush_outboxes sim =
  for i = 0 to Array.length sim.shards - 1 do
    let s = sim.shards.(i) in
    let n = s.out_n in
    s.out_n <- 0;
    for j = 0 to n - 1 do
      let a = s.out_ints and fn = s.out_fns.(j) and timed = s.out_timeds.(j) in
      s.out_fns.(j) <- Shardq.nop;
      s.out_timeds.(j) <- Shardq.nop_timed;
      merge sim ~fire:a.(5 * j) ~sched:a.((5 * j) + 1) ~srcseq:a.((5 * j) + 2)
        ~dst:a.((5 * j) + 3) ~msg:a.((5 * j) + 4) fn timed
    done
  done

(* The earliest pending fire time over every shard; [max_int] when
   nothing is pending. *)
let window_min sim =
  Array.fold_left
    (fun acc s ->
      let f = Shardq.min_fire s.q in
      if f < acc then f else acc)
    max_int sim.shards

let run_windowed sim ~jobs ~limit =
  let nsh = Array.length sim.shards in
  Array.iter (fun s -> s.failure <- None) sim.shards;
  let n0 = events_executed sim in
  (* barrier state, all under [mu] *)
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let epoch = ref 0 in
  let done_count = ref 0 in
  let wend = ref 0 in
  let allow = ref 0 in
  let stop = ref false in
  let drain_assigned w =
    let executed_here = ref 0 in
    let wendv = !wend and allowv = !allow in
    let i = ref w in
    while !i < nsh do
      let s = sim.shards.(!i) in
      if s.failure = None then
        executed_here := !executed_here + drain sim s ~wend:wendv ~allow:allowv;
      i := !i + jobs
    done;
    !executed_here
  in
  let worker w () =
    let my_epoch = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock mu;
      while !epoch = !my_epoch && not !stop do
        Condition.wait cv mu
      done;
      if !stop then begin
        Mutex.unlock mu;
        running := false
      end
      else begin
        my_epoch := !epoch;
        Mutex.unlock mu;
        ignore (drain_assigned w);
        Mutex.lock mu;
        incr done_count;
        Condition.broadcast cv;
        Mutex.unlock mu
      end
    done
  in
  let domains = Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1) ())) in
  let shutdown () =
    Mutex.lock mu;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock mu;
    Array.iter Domain.join domains
  in
  Fun.protect ~finally:shutdown (fun () ->
      let running = ref true in
      while !running do
        flush_outboxes sim;
        match window_min sim with
        | t when t = max_int -> running := false
        | t ->
          let total = events_executed sim - n0 in
          if total >= limit then
            failwith
              (limit_msg ~limit ~executed:(events_executed sim) ~clock:(now sim)
                 ~pending:(pending sim));
          (* open the window *)
          sim.windows <- sim.windows + 1;
          Mutex.lock mu;
          wend := t + sim.lookahead;
          allow := limit - total;
          incr epoch;
          done_count := 0;
          Condition.broadcast cv;
          Mutex.unlock mu;
          (* the coordinator is worker 0 *)
          ignore (drain_assigned 0);
          let b0 = Unix.gettimeofday () in
          Mutex.lock mu;
          while !done_count < jobs - 1 do
            Condition.wait cv mu
          done;
          Mutex.unlock mu;
          sim.wall.(nsh) <- sim.wall.(nsh) +. (Unix.gettimeofday () -. b0);
          (* deterministic failure propagation: every worker has
             stopped; report the lowest-numbered failing shard *)
          Array.iter
            (fun s -> match s.failure with Some e -> raise e | None -> ())
            sim.shards
      done);
  events_executed sim - n0

let run sim ?(limit = max_int) () =
  if sim.jobs = 1 then run_global sim ~limit else run_windowed sim ~jobs:sim.jobs ~limit

(* The job count picks which heaps hold pending events — the one heap
   at 1, the per-shard heaps at 2 or more — so it changes only while
   nothing is pending. *)
let set_jobs sim jobs =
  let jobs = if sim.lookahead = 0 then 1 else max 1 (min jobs (Array.length sim.shards)) in
  if jobs <> sim.jobs then begin
    if pending sim > 0 then invalid_arg "Sim.set_jobs: events pending";
    sim.jobs <- jobs
  end
