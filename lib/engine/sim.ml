(* Discrete-event engine: one event partition ("shard") per SSMP
   cluster, synchronized conservatively with the inter-SSMP LAN
   latency as the lookahead window.

   Every event carries a canonical genealogy key (see {!Shardq}).  The
   engine runs in one of two modes, chosen by the effective job count
   for the run:

   - {b canonical-global} (jobs = 1): a single heap ordered by the
     canonical key, drained on the calling domain.  This is a total
     order over all shards and is the order the parallel mode must
     reproduce per shard: fire time, then scheduling order — the key's
     recursive parent component resolves even cross-shard ties the way
     a global insertion counter would.  Each popped key is ranked with
     its position in that order before its event runs, so the keys its
     event creates point at a parent that holds no ancestry.

   - {b windowed} (jobs >= 2): per-shard heaps drained concurrently on
     [jobs] domains between barriers.  Each window executes every event
     with [fire < T + lookahead] where [T] is the globally earliest
     pending fire time.  Cross-shard events' keys are appended to the
     scheduling shard's outbox and merged into the destination heap at
     the barrier; because the LAN delivers cross-SSMP work no earlier
     than [send + lookahead], a message created inside a window always
     fires at or after the window's end, so the destination's per-shard
     execution order is identical to its subsequence of the
     canonical-global order — which is what makes the two modes produce
     byte-identical results.  A window needs a positive width, so a
     zero lookahead always runs canonical-global.

   Shard-local clocks, counters and statistics are only ever touched by
   the domain currently running that shard; the window barrier's mutex
   publishes them between domains. *)

type time = int

type shard = {
  id : int;
  q : Shardq.t; (* per-shard heap (windowed mode) *)
  mutable clock : int;
  mutable ctr : int; (* scheduling counter: [seq] source *)
  mutable running : Shardq.key; (* key of the event being executed *)
  mutable executed : int;
  mutable clamped : int; (* past-due schedules clamped to the clock *)
  mutable peak : int;
  mutable out_keys : Shardq.key array; (* cross-shard sends, merged at barriers *)
  mutable out_dst : int array; (* their destination shards *)
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
  g : Shardq.t; (* canonical-global heap (jobs = 1) *)
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
  mutable rank : int;
      (* the next canonical-global rank; -1 from the first windowed
         run on, whose executed keys stay unranked and so must sort
         after every ranked one *)
}

exception Late_delivery of { dst : int; fire : int; clock : int }

(* Which shard the running domain is currently executing; -1 between
   events (host code).  Domain-local so concurrent shards each see
   their own. *)
let cur_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let cur () = Domain.DLS.get cur_key

let set_cur v = Domain.DLS.set cur_key v

(* Genealogy key of the event this domain is currently executing.  The
   observability layer stamps every emission with it so per-shard cells
   can be merged back into the canonical execution order at export.
   Only meaningful while [cur () >= 0]. *)
let run_key : Shardq.key Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Shardq.no_parent)

let running_key () = Domain.DLS.get run_key

let new_shard id =
  {
    id;
    q = Shardq.create ();
    clock = 0;
    ctr = 0;
    running = Shardq.no_parent;
    executed = 0;
    clamped = 0;
    peak = 0;
    out_keys = [||];
    out_dst = [||];
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
    rank = 0;
  }

let set_strict sim v = sim.strict <- v

let set_on_event sim h = sim.on_event <- h

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

let push_local sim ~key ~own =
  if sim.jobs > 1 then begin
    let d = sim.shards.(own) in
    Shardq.insert d.q ~key ~own;
    let len = Shardq.length d.q in
    if len > d.peak then d.peak <- len
  end
  else begin
    Shardq.insert sim.g ~key ~own;
    let len = Shardq.length sim.g in
    if len > sim.gpeak then sim.gpeak <- len
  end

(* Park a cross-shard key until the barrier; the arrays only grow. *)
let outbox_add s key dst =
  let n = s.out_n in
  if n = Array.length s.out_keys then begin
    s.out_keys <- Array.append s.out_keys (Array.make (n + 16) Shardq.no_parent);
    s.out_dst <- Array.append s.out_dst (Array.make (n + 16) 0)
  end;
  s.out_keys.(n) <- key;
  s.out_dst.(n) <- dst;
  s.out_n <- n + 1

(* Schedule [fn] or [timed] (the other a no-op) on shard [dst] at time
   [t].  The key is minted from the scheduling context: inside an event,
   the executing shard and the executing event's key as parent;
   host-side, the destination shard itself with the root sentinel.
   Past-due times are clamped to the scheduler's clock and counted. *)
let schedule sim dst t fn timed =
  if dst < 0 || dst >= Array.length sim.shards then invalid_arg "Sim.at_shard: bad shard";
  let c = cur () in
  let s = if c >= 0 then sim.shards.(c) else sim.shards.(dst) in
  let fire =
    if t < s.clock then begin
      s.clamped <- s.clamped + 1;
      s.clock
    end
    else t
  in
  let seq = s.ctr in
  s.ctr <- seq + 1;
  let parent = if c >= 0 then s.running else Shardq.no_parent in
  let key = Shardq.event ~fire ~sched:s.clock ~src:s.id ~seq ~parent fn timed in
  if c >= 0 && c <> dst then s.xsends <- s.xsends + 1;
  if sim.jobs > 1 && c >= 0 && c <> dst then
    (* cross-shard send from inside an event: park in the outbox; the
       barrier merges it into [dst]'s heap before the next window *)
    outbox_add s key dst
  else push_local sim ~key ~own:dst

let at_shard sim ~shard t fn = schedule sim shard t fn Shardq.nop_timed

let at_shard_k sim ~shard t k = schedule sim shard t Shardq.nop k

(* [at] without an explicit target: stay on the executing shard (the
   common case — timers, fiber resumptions, local protocol work).
   Host-side calls without a target land on shard 0. *)
let at sim t fn = schedule sim (Int.max 0 (cur ())) t fn Shardq.nop_timed

let at_k sim t k = schedule sim (Int.max 0 (cur ())) t Shardq.nop k

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

(* jobs = 1: drain the canonical-global heap in key order. *)
let run_global sim ~limit =
  let n0 = events_executed sim in
  let rec go n =
    if n - n0 >= limit then
      failwith (limit_msg ~limit ~executed:n ~clock:(now sim) ~pending:(pending sim))
    else if Shardq.is_empty sim.g then n - n0
    else begin
      let fn = Shardq.pop_min sim.g in
      let timed = Shardq.popped_timed sim.g in
      let s = sim.shards.(Shardq.popped_own sim.g) in
      let t = Shardq.popped_fire sim.g in
      if t > s.clock then s.clock <- t;
      s.executed <- s.executed + 1;
      s.running <- Shardq.popped_key sim.g;
      if sim.rank >= 0 then begin
        Shardq.rank s.running sim.rank;
        sim.rank <- sim.rank + 1
      end;
      set_cur s.id;
      Domain.DLS.set run_key s.running;
      (match sim.on_event with Some h -> h ~shard:s.id ~now:t | None -> ());
      (match if timed == Shardq.nop_timed then fn () else timed t with
      | () ->
        s.running <- Shardq.no_parent;
        set_cur (-1)
      | exception e ->
        s.running <- Shardq.no_parent;
        set_cur (-1);
        raise e);
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
  (try
     let continue_ = ref true in
     while !continue_ do
       if Shardq.min_fire s.q < wend then begin
         if !n >= allow then
           failwith
             (limit_msg ~limit:allow ~executed:(s.executed) ~clock:s.clock
                ~pending:(Shardq.length s.q))
         else begin
           let fn = Shardq.pop_min s.q in
           let timed = Shardq.popped_timed s.q in
           let t = Shardq.popped_fire s.q in
           if t > s.clock then s.clock <- t;
           s.executed <- s.executed + 1;
           s.running <- Shardq.popped_key s.q;
           incr n;
           set_cur s.id;
           Domain.DLS.set run_key s.running;
           (match sim.on_event with Some h -> h ~shard:s.id ~now:t | None -> ());
           if timed == Shardq.nop_timed then fn () else timed t;
           s.running <- Shardq.no_parent;
           set_cur (-1)
         end
       end
       else continue_ := false
     done
   with e ->
     s.running <- Shardq.no_parent;
     set_cur (-1);
     s.failure <- Some e);
  if !n = 0 then s.stalls <- s.stalls + 1;
  sim.wall.(s.id) <- sim.wall.(s.id) +. (Unix.gettimeofday () -. t0);
  !n

(* Merge every outbox key into its destination heap.  Runs on the
   coordinating domain while the workers are parked at the barrier.
   Heap order comes from the keys, so merge order does not matter.  A
   message firing before its destination's clock means the lookahead
   argument was violated (an engine or cost-model bug, not a program
   bug): it is counted as a clamp on the destination and, under strict
   mode, raised. *)
let merge sim key dst =
  let d = sim.shards.(dst) and fire = key.Shardq.k_fire in
  let key =
    if fire >= d.clock then key
    else begin
      d.clamped <- d.clamped + 1;
      if sim.strict then raise (Late_delivery { dst; fire; clock = d.clock });
      Shardq.refire key ~fire:d.clock
    end
  in
  Shardq.insert d.q ~key ~own:dst;
  d.merges <- d.merges + 1;
  let len = Shardq.length d.q in
  if len > d.peak then d.peak <- len

let flush_outboxes sim =
  for i = 0 to Array.length sim.shards - 1 do
    let s = sim.shards.(i) in
    let n = s.out_n in
    s.out_n <- 0;
    for j = 0 to n - 1 do
      let key = s.out_keys.(j) in
      s.out_keys.(j) <- Shardq.no_parent;
      merge sim key s.out_dst.(j)
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
  sim.rank <- -1;
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
