(* Outside-in micro loops: each times one layer's public function in
   isolation, sized from the workload it accompanies (queue depth at the
   workload's peak, P live fibers, the workload's topology, its mean
   words per diff).  A loop runs in chunks for at least [budget_s] host
   seconds; the result is the median over chunks of ns and minor-heap
   words per operation, less the cost of an empty measurement bracket.
   These numbers ignore cache effects in situ, so [est.*] products built
   from them are estimates, not measurements. *)

module Sim = Mgs_engine.Sim
module Topology = Mgs_machine.Topology

type result = { ns : float; words : float }

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let bracket f =
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  f ();
  let t1 = Monotonic_clock.now () in
  let w1 = Gc.minor_words () in
  (Int64.to_float (Int64.sub t1 t0), w1 -. w0)

let calibration =
  lazy
    (let samples = Array.init 201 (fun _ -> bracket ignore) in
     (median (Array.map fst samples), median (Array.map snd samples)))

let min_chunks = 5

let budget_s = 0.2

(* [prep ()] readies one chunk outside the bracket and returns the
   thunk that performs [ops] operations. *)
let measure ~ops prep =
  let cal_ns, cal_words = Lazy.force calibration in
  let ns = ref [] and words = ref [] and chunks = ref 0 in
  let deadline = Rep.now () +. budget_s in
  while !chunks < min_chunks || Rep.now () < deadline do
    let f = prep () in
    let t, w = bracket f in
    ns := ((t -. cal_ns) /. float_of_int ops) :: !ns;
    words := ((w -. cal_words) /. float_of_int ops) :: !words;
    incr chunks
  done;
  { ns = median (Array.of_list !ns); words = median (Array.of_list !words) }

let sharded_sim ~nshards =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards ~lookahead:1000;
  Sim.set_jobs sim 1;
  sim

(* [Sim.at] + [Sim.run] of empty events with [depth] of them pending. *)
let dispatch ~depth =
  let depth = max 1 depth in
  let sim = sharded_sim ~nshards:1 in
  let ops = max 200_000 (depth * 20) in
  let remaining = ref 0 in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.after sim depth tick
    end
  in
  measure ~ops (fun () ->
      remaining := ops - depth;
      let t = Sim.now sim in
      for i = 0 to depth - 1 do
        Sim.at_shard sim ~shard:0 (t + i) tick
      done;
      fun () -> ignore (Sim.run sim ()))

(* [Shardq.push] + [Shardq.pop_min] on a heap holding [depth] events. *)
let queue ~depth =
  let module Q = Mgs_engine.Shardq in
  let q = Q.create () in
  let seq = ref 0 in
  let push fire =
    incr seq;
    Q.push q ~key:(Q.key ~fire ~sched:fire ~src:0 ~seq:!seq ~parent:Q.no_parent) ~own:0 ignore
  in
  for i = 0 to max 1 depth - 1 do
    push i
  done;
  let fire = ref depth in
  let ops = 200_000 in
  measure ~ops (fun () () ->
      for _ = 1 to ops do
        push !fire;
        incr fire;
        ignore (Q.pop_min q : unit -> unit)
      done)

(* [Fiber.sleep_until] round trips with [nprocs] live fibers. *)
let fiber_switch ~nprocs =
  let rounds = max 4 (200_000 / nprocs) in
  measure ~ops:(nprocs * rounds) (fun () ->
      let sim = sharded_sim ~nshards:1 in
      for _ = 1 to nprocs do
        ignore
          (Mgs_engine.Fiber.spawn sim ~shard:0 ~at:0 ~name:"bench" (fun () ->
               for _ = 1 to rounds do
                 Mgs_engine.Fiber.sleep_until sim (Sim.now sim + 1)
               done))
      done;
      fun () -> ignore (Sim.run sim ()))

let costs = Mgs_machine.Costs.with_lan_latency Mgs_machine.Costs.default 1000

(* A chain of [ops] messages, each sent from where the last arrived, so
   one message is in flight at a time; [send ~topo ~sim ~lan] returns the
   function that sends the next hop and runs its argument on delivery. *)
let chain ~nprocs ~cluster send =
  let topo = Topology.create ~nprocs ~cluster in
  let nssmps = topo.Topology.nssmps in
  let ops = 50_000 in
  measure ~ops (fun () ->
      let sim = sharded_sim ~nshards:nssmps in
      let lan = Mgs_net.Lan.create sim costs ~nssmps in
      let left = ref ops in
      let post = send ~topo ~sim ~lan in
      let rec step _ =
        if !left > 0 then begin
          decr left;
          post step
        end
      in
      Sim.at_shard sim ~shard:0 0 (fun () -> step 0);
      fun () -> ignore (Sim.run sim ()))

(* [Am.post] between processors one SSMP apart. *)
let am_post ~nprocs ~cluster =
  chain ~nprocs ~cluster (fun ~topo ~sim ~lan ->
      let cpus = Array.init nprocs Mgs_machine.Cpu.create in
      let am = Mgs_am.Am.create sim costs topo ~lan ~cpus in
      let hop = if topo.Topology.nssmps > 1 then cluster else 1 in
      let cur = ref 0 in
      fun k ->
        let src = !cur in
        let dst = (src + hop) mod nprocs in
        cur := dst;
        Mgs_am.Am.post am ~tag:"BENCH" ~src ~dst ~words:0 ~cost:0 k)

(* [Lan.send] between neighbouring SSMPs on the perfect wire. *)
let lan_send ~nprocs ~cluster =
  chain ~nprocs ~cluster (fun ~topo ~sim ~lan ->
      let n = topo.Topology.nssmps in
      let envs =
        Array.init n (fun s ->
            Mgs_net.Envelope.make ~tag:"BENCH" ~src_ssmp:s ~dst_ssmp:((s + 1) mod n) ~words:0 ())
      in
      let cur = ref 0 in
      fun k ->
        let env = envs.(!cur) in
        cur := env.Mgs_net.Envelope.dst_ssmp;
        Mgs_net.Lan.send lan env ~at:(Sim.now sim) k)

(* [Api.read] hitting the last-page fast path, inside a one-processor
   [Machine.run].  Each chunk stops one read short of the fiber's
   periodic yield, and that yielding read runs outside the bracket. *)
let read_hit () =
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:1 ~nprocs:1 ~cluster:1 () in
  let m = Mgs.Machine.create cfg in
  let a = Mgs.Machine.alloc m ~words:256 ~home:Mgs_mem.Allocator.Blocked in
  let result = ref None in
  let (_ : Mgs.Report.t) =
    Mgs.Machine.run m (fun ctx ->
        let mask = ctx.Mgs.Api.yield_mask in
        let read () = ignore (Mgs.Api.read ctx a : float) in
        read ();
        while ctx.Mgs.Api.ops land mask <> 0 do
          read ()
        done;
        result :=
          Some
            (measure ~ops:mask (fun () ->
                 while ctx.Mgs.Api.ops land mask <> 0 do
                   read ()
                 done;
                 fun () ->
                   for _ = 1 to mask do
                     read ()
                   done)))
  in
  Option.get !result

(* [Coherence.access]: a fixed pseudo-random mix of 80% loads and 20%
   stores by the SSMP's [cluster] processors over 64 pages. *)
let cache_access ~cluster =
  let geom = Mgs_mem.Geom.create () in
  let c = Mgs_cache.Coherence.create costs geom ~cluster in
  let n = 1 lsl 16 in
  let words = 64 * geom.Mgs_mem.Geom.page_words in
  let st = Random.State.make [| 42 |] in
  let procs = Array.init n (fun _ -> Random.State.int st cluster) in
  let addrs = Array.init n (fun _ -> Random.State.int st words) in
  let writes = Array.init n (fun _ -> Random.State.int st 5 = 0) in
  let owner a = Mgs_mem.Geom.vpn_of_addr geom a mod cluster in
  measure ~ops:n (fun () () ->
      for i = 0 to n - 1 do
        ignore
          (Mgs_cache.Coherence.access c ~proc:procs.(i) ~addr:addrs.(i)
             ~frame_owner:(owner addrs.(i))
             ~kind:(if writes.(i) then Mgs_cache.Coherence.Write else Mgs_cache.Coherence.Read))
      done)

(* [Tlb.grants] hits on a TLB holding 256 pages. *)
let tlb_grants () =
  let module Tlb = Mgs_svm.Tlb in
  let t = Tlb.create () in
  for vpn = 0 to 255 do
    Tlb.fill t ~vpn ~mode:(if vpn land 1 = 0 then Tlb.Rw else Tlb.Ro)
  done;
  let ops = 1 lsl 16 in
  measure ~ops (fun () () ->
      for i = 0 to ops - 1 do
        ignore (Tlb.grants t ~vpn:(i land 255) ~write:(i land 2 = 0))
      done)

(* [Pagedata.diff] against a twin with [dirty] marked-and-changed words
   spread over a 256-word page, and [apply_diff] of the result. *)
let diff_apply ~dirty =
  let module P = Mgs_mem.Pagedata in
  let geom = Mgs_mem.Geom.create () in
  let pw = geom.Mgs_mem.Geom.page_words in
  let dirty = max 1 (min pw dirty) in
  let page = P.create geom in
  let twin = P.twin_of page in
  let stride = max 1 (pw / dirty) in
  for i = 0 to dirty - 1 do
    let off = i * stride mod pw in
    P.mark twin off;
    page.(off) <- float_of_int (i + 1)
  done;
  let d = P.diff page ~twin in
  let target = P.create geom in
  let ops = 10_000 in
  let diff = measure ~ops (fun () () -> for _ = 1 to ops do ignore (P.diff page ~twin) done) in
  let apply = measure ~ops (fun () () -> for _ = 1 to ops do P.apply_diff target d done) in
  (diff, apply)

(* [Span.open_span] + [Span.close] of a request-shaped root span, into a
   fresh store per chunk so nothing is dropped. *)
let span () =
  let module S = Mgs_obs.Span in
  let ops = 50_000 in
  measure ~ops (fun () ->
      let sp = S.create ~capacity:(2 * ops) () in
      fun () ->
        for i = 1 to ops do
          let c =
            S.open_span sp ~parent:S.none ~time:i ~label:"kv.get"
              ~engine:Mgs_obs.Event.Local_client ~src:0 ~src_ssmp:0 ()
          in
          S.close sp c ~time:(i + 1)
        done)
