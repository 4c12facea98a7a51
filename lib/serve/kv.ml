(* Request-serving key-value tier on the DSM.

   The store is a set of open-addressed hash shards living in shared
   pages: shard [s] is one contiguous allocation of 2-word slots
   (key word, value word) homed on SSMP [s mod nssmps], pre-populated
   host-side so every lookup hits.  Keys are assigned to shards round
   robin, gets and scans probe locklessly (key words never change
   after population and word accesses are atomic simulation events),
   and puts read-modify-write the value word under a lock from the
   {!Mgs_sync.Locks} registry.  Locking is striped: [stripes] locks
   per shard, keys interleaved over them, so [stripes = 1] is the
   classic per-shard big lock (fully serialized writers) and larger
   values let puts to different keys of the same page proceed
   concurrently — the upgrade-burst pattern the adaptive classifier
   resolves to the invalidate regime.  [home = "packed"] places every
   shard (and lock) on SSMP 0, the naive-allocator placement whose
   repair by adaptive home migration the adapt gate demonstrates.

   Load is open loop: every client fiber's full request schedule —
   arrival times, operations, keys — is precomputed host-side from
   [Rng.split_key] streams before the machine runs, so the offered
   load is a pure function of the seed, independent of service times,
   schedule, -j, and --par.  A request's user draws its popularity
   rank from a zipfian over ranks; rank -> key goes through a seeded
   global permutation rotated every [churn] requests (the active
   cohort of the [users] population turns over, moving the hot set).
   A client that falls behind serves requests back to back; latency is
   completion minus *scheduled arrival*, so queueing delay is counted
   — the open-loop property that makes the p999 honest.

   Correctness is checked end to end: values encode [key * 2^20 + seq]
   where [seq] counts the puts applied to the key, clients decode and
   verify every value they read (a torn or stale-grant read fails
   loudly), and the post-run verifier peeks every slot and compares
   [seq] against the put counts implied by the precomputed schedules.

   Each completed request retroactively opens a [kv.get]/[kv.put]/
   [kv.scan] root span over [arrival, completion] with [kv.queue]/
   [kv.lock]/[kv.access] children partitioning it; {!Tail} renders the
   p50/p99/p999 table from those spans.  They go into the machine's
   span store ({!Mgs.Machine.enable_spans}), which does not turn on
   machine recording: unless the caller enabled the trace, the store
   holds these request spans and nothing else. *)

module Api = Mgs.Api
module Rng = Mgs_util.Rng

type params = {
  nkeys : int;  (** distinct keys in the store *)
  nshards : int;  (** hash shards; 0 = one per SSMP *)
  ops : int;  (** requests per client fiber *)
  users : int;  (** simulated user population multiplexed onto the clients *)
  theta : float;  (** zipfian skew of key popularity *)
  get_pct : int;  (** % of requests that are gets *)
  put_pct : int;  (** % puts; the rest are scans *)
  scan_len : int;  (** keys touched per scan *)
  churn : int;  (** requests per popularity epoch per client; 0 = no churn *)
  period : int;  (** mean inter-arrival gap per client, cycles *)
  burst : int;
      (** 0 = independent arrivals; > 0 quantizes every arrival up to
          the next multiple of [burst] cycles, synchronizing clients
          into thundering-herd waves *)
  think : int;  (** modelled per-request computation, cycles *)
  seed : int;
  lock : Mgs_sync.Locks.kind;  (** shard lock algorithm *)
  stripes : int;  (** locks per shard, keys interleaved; 1 = per-shard lock *)
  home : string;  (** shard placement: "spread" (round robin) or "packed" (all on SSMP 0) *)
}

let default =
  {
    nkeys = 512;
    nshards = 0;
    ops = 200;
    users = 1_000_000;
    theta = 0.99;
    get_pct = 70;
    put_pct = 25;
    scan_len = 8;
    churn = 64;
    period = 30000;
    burst = 0;
    think = 200;
    seed = 7;
    lock = Mgs_sync.Locks.Token;
    stripes = 1;
    home = "spread";
  }

let tiny =
  {
    default with
    nkeys = 64;
    ops = 40;
    users = 10_000;
    period = 2500;
    scan_len = 4;
    churn = 16;
    seed = 3;
  }

let problem_size p =
  Printf.sprintf "%d keys, %d ops/client, theta=%.2f, %d users" p.nkeys p.ops p.theta
    p.users

(* Value encoding: key * 2^20 + (puts applied mod 2^20), exact in a
   float word up to ~2^33 keys. *)
let seq_bits = 20

let seq_mask = (1 lsl seq_bits) - 1

let encode ~key ~seq = (key lsl seq_bits) lor (seq land seq_mask)

let key_of_value v = v lsr seq_bits

let seq_of_value v = v land seq_mask

let validate p =
  if p.nkeys < 1 then invalid_arg "kv: nkeys must be positive";
  if p.ops < 0 then invalid_arg "kv: ops must be nonnegative";
  if p.users < 1 then invalid_arg "kv: users must be positive";
  if p.get_pct < 0 || p.put_pct < 0 || p.get_pct + p.put_pct > 100 then
    invalid_arg "kv: get/put percentages must be nonnegative and sum to at most 100";
  if p.scan_len < 1 then invalid_arg "kv: scan-len must be positive";
  if p.period < 1 then invalid_arg "kv: period must be positive";
  if p.theta < 0. then invalid_arg "kv: theta must be nonnegative";
  if p.churn < 0 then invalid_arg "kv: churn must be nonnegative";
  if p.burst < 0 then invalid_arg "kv: burst must be nonnegative";
  if p.stripes < 1 then invalid_arg "kv: stripes must be positive";
  if p.home <> "spread" && p.home <> "packed" then
    invalid_arg "kv: home must be \"spread\" or \"packed\""

(* --- precomputed request schedules ---------------------------------- *)

type opcode = Get | Put | Scan

type schedule = {
  arrival : int array;  (** scheduled arrival time of request i, cycles *)
  opcode : opcode array;
  key : int array;  (** target key (scan start key for scans) *)
}

(* The whole offered load as a pure function of the seed: per-client
   arrival/op streams, per-user rank streams (stateless: one child
   generator per request, keyed by user then request nonce, so the
   million-user population costs no per-user state). *)
let schedules p ~nprocs =
  let master = Rng.create ~seed:(0x5EED + p.seed) in
  let zipf_master = Rng.split_key master ~key:1 in
  let perm_rng = Rng.split_key master ~key:2 in
  let perm = Array.init p.nkeys (fun i -> i) in
  Rng.shuffle_in_place perm_rng perm;
  let dist = Zipf.dist ~n:p.nkeys ~theta:p.theta in
  let key_of ~rank ~epoch = 1 + perm.((rank + (epoch * 7919)) mod p.nkeys) in
  Array.init nprocs (fun c ->
      let crng = Rng.split_key master ~key:(1000 + c) in
      let arr_rng = Rng.split_key crng ~key:1 in
      let op_rng = Rng.split_key crng ~key:2 in
      let user_rng = Rng.split_key crng ~key:3 in
      let arrival = Array.make p.ops 0 in
      let opcode = Array.make p.ops Get in
      let key = Array.make p.ops 1 in
      let t = ref 0 in
      for i = 0 to p.ops - 1 do
        (* exponential-ish inter-arrival gaps; u in (0, 1] keeps log finite *)
        let u = 1.0 -. Rng.float arr_rng 1.0 in
        t := !t + 1 + int_of_float (-.log u *. float_of_int p.period);
        (* herd mode: quantize up to the wave boundary so every client
           in the wave arrives at the same instant *)
        if p.burst > 0 then t := (!t + p.burst - 1) / p.burst * p.burst;
        arrival.(i) <- !t;
        let r = Rng.int op_rng 100 in
        opcode.(i) <- (if r < p.get_pct then Get else if r < p.get_pct + p.put_pct then Put else Scan);
        let user = Rng.int user_rng p.users in
        let req_rng = Rng.split_key (Rng.split_key zipf_master ~key:user) ~key:((c * p.ops) + i) in
        let rank = Zipf.draw dist req_rng in
        let epoch = if p.churn = 0 then 0 else i / p.churn in
        key.(i) <- key_of ~rank ~epoch
      done;
      { arrival; opcode; key })

(* Puts applied per key over all schedules: the oracle the post-run
   verifier compares final [seq] values against.  Scans and gets write
   nothing. *)
let puts_per_key p (scheds : schedule array) =
  let counts = Array.make (p.nkeys + 1) 0 in
  Array.iter
    (fun s ->
      Array.iteri
        (fun i op -> if op = Put then counts.(s.key.(i)) <- counts.(s.key.(i)) + 1)
        s.opcode)
    scheds;
  counts

(* --- the store ------------------------------------------------------ *)

let next_pow2 n =
  let x = ref 1 in
  while !x < n do
    x := !x * 2
  done;
  !x

let prepare p (m : Mgs.Machine.t) =
  validate p;
  let topo = Mgs.Machine.topo m in
  let nprocs = topo.Mgs_machine.Topology.nprocs in
  let nssmps = topo.Mgs_machine.Topology.nssmps in
  let nshards = if p.nshards = 0 then nssmps else p.nshards in
  let tr = Mgs.Machine.enable_spans m in
  let sp = Mgs_obs.Trace.spans tr in
  (* one open-addressed table per shard; keys round robin over shards *)
  let keys_per_shard = ((p.nkeys + nshards - 1) / nshards) + 1 in
  let nslots = next_pow2 (2 * keys_per_shard) in
  let mask = nslots - 1 in
  let home_ssmp s = if p.home = "packed" then 0 else s mod nssmps in
  let bases =
    Array.init nshards (fun s ->
        let home = Mgs_machine.Topology.first_proc_of_ssmp topo (home_ssmp s) in
        Mgs.Machine.alloc m ~words:(2 * nslots)
          ~home:(Mgs_mem.Allocator.On_proc home))
  in
  (* [stripes] locks per shard, keys interleaved over them by their
     index within the shard's key group *)
  let locks =
    Array.init (nshards * p.stripes) (fun i ->
        Mgs_sync.Locks.make m ~home:(home_ssmp (i / p.stripes)) p.lock)
  in
  let lock_of k =
    let s = (k - 1) mod nshards in
    (s * p.stripes) + ((k - 1) / nshards mod p.stripes)
  in
  (* host-side slot placement, shared with the verifier *)
  let hash k =
    let h = k * 0x9E3779B9 in
    let h = h lxor (h lsr 16) in
    h land mask
  in
  let slot_of = Array.make (p.nkeys + 1) (-1) in
  let taken = Array.init nshards (fun _ -> Array.make nslots false) in
  for k = 1 to p.nkeys do
    let s = (k - 1) mod nshards in
    let h = ref (hash k) in
    while taken.(s).(!h) do
      h := (!h + 1) land mask
    done;
    taken.(s).(!h) <- true;
    slot_of.(k) <- !h;
    Mgs.Machine.poke m (bases.(s) + (2 * !h)) (float_of_int k);
    Mgs.Machine.poke m (bases.(s) + (2 * !h) + 1) (float_of_int (encode ~key:k ~seq:0))
  done;
  let scheds = schedules p ~nprocs in
  let expected_puts = puts_per_key p scheds in
  (* per-proc accounting: each fiber writes only its own slot *)
  let violations = Array.make nprocs 0 in
  let completed = Array.make nprocs 0 in
  let by_op = Array.init 3 (fun _ -> Array.make nprocs 0) (* get, put, scan *) in
  let queued = Array.make nprocs 0 in
  (* serve.* metrics, when the sampler is installed: each probe sums
     one per-proc count over the sampling SSMP's processors *)
  let lat =
    match Mgs.Machine.metrics m with
    | None -> None
    | Some mt ->
      let cluster = topo.Mgs_machine.Topology.cluster in
      let probe ?labels name counts =
        Mgs_obs.Metrics.probe_cell mt ?labels name (fun cell ->
            let sum = ref 0 in
            for proc = cell * cluster to ((cell + 1) * cluster) - 1 do
              sum := !sum + counts.(proc)
            done;
            !sum)
      in
      List.iteri
        (fun i op -> probe ~labels:[ ("op", op) ] "serve.ops" by_op.(i))
        [ "get"; "put"; "scan" ];
      probe "serve.queued" queued;
      probe "serve.done" completed;
      Some
        (Array.init nssmps (fun s ->
             Mgs_obs.Metrics.histogram mt
               ~labels:[ ("ssmp", string_of_int s) ]
               "serve.latency"))
  in
  let body (ctx : Api.ctx) =
    let proc = Api.proc ctx in
    let my_ssmp = Api.ssmp ctx in
    let sched = scheds.(proc) in
    (* probe to the slot holding [k]; population guarantees a hit *)
    let find_slot k =
      let s = (k - 1) mod nshards in
      let base = bases.(s) in
      let h = ref (hash k) in
      let kw = ref (Api.read_int ctx (base + (2 * !h))) in
      while !kw <> k && !kw <> 0 do
        h := (!h + 1) land mask;
        kw := Api.read_int ctx (base + (2 * !h))
      done;
      if !kw = 0 then begin
        (* impossible unless the store is corrupt: count and fall back *)
        violations.(proc) <- violations.(proc) + 1;
        base + (2 * hash k) + 1
      end
      else base + (2 * !h) + 1
    in
    let check_value ~key v =
      if key_of_value v <> key then violations.(proc) <- violations.(proc) + 1
    in
    (* modelled request computation must occupy *simulated* time, not
       just the fiber's latency accounting: sleeping to the advanced
       clock makes lock hold times real to the other clients *)
    let think () =
      Api.compute ctx p.think;
      Api.idle_until ctx (Api.cycles ctx)
    in
    (* one request span, opened without optional arguments: each would
       box a [Some] per request *)
    let phase ~parent ~time label =
      Mgs_obs.Span.open_span_x sp ~parent ~time ~label ~engine:Mgs_obs.Event.Local_client
        ~vpn:(-1) ~src:proc ~dst:(-1) ~src_ssmp:my_ssmp ~dst_ssmp:(-1) ~words:0
    in
    for i = 0 to p.ops - 1 do
      let t_arr = sched.arrival.(i) in
      if Api.cycles ctx < t_arr then Api.idle_until ctx t_arr;
      let t_start = Api.cycles ctx in
      let k = sched.key.(i) in
      let label, t_svc =
        match sched.opcode.(i) with
        | Get ->
          let v = Api.read_int ctx (find_slot k) in
          check_value ~key:k v;
          think ();
          ("kv.get", t_start)
        | Put ->
          let l = lock_of k in
          Mgs_sync.Locks.acquire ctx locks.(l);
          let t_locked = Api.cycles ctx in
          let addr = find_slot k in
          let v = Api.read_int ctx addr in
          check_value ~key:k v;
          Api.write_int ctx addr (encode ~key:k ~seq:(seq_of_value v + 1));
          (* post-write work (index/journal update) holds the stripe
             lock: the hold window is what lets concurrent striped
             writers to one page overlap their in-place upgrades *)
          think ();
          Mgs_sync.Locks.release ctx locks.(l);
          ("kv.put", t_locked)
        | Scan ->
          for j = 0 to p.scan_len - 1 do
            let kj = 1 + ((k - 1 + j) mod p.nkeys) in
            let v = Api.read_int ctx (find_slot kj) in
            check_value ~key:kj v
          done;
          think ();
          ("kv.scan", t_start)
      in
      let t_done = Api.cycles ctx in
      completed.(proc) <- completed.(proc) + 1;
      (* retroactive request spans: root [arrival, done], children
         partitioning it — all stamped inside this fiber's event, so
         the store merges them deterministically under --par *)
      let root = phase ~parent:Mgs_obs.Span.none ~time:t_arr label in
      if t_start > t_arr then
        Mgs_obs.Span.close sp (phase ~parent:root ~time:t_arr "kv.queue") ~time:t_start;
      if t_svc > t_start then
        Mgs_obs.Span.close sp (phase ~parent:root ~time:t_start "kv.lock") ~time:t_svc;
      Mgs_obs.Span.close sp (phase ~parent:root ~time:t_svc "kv.access") ~time:t_done;
      Mgs_obs.Span.close sp root ~time:t_done;
      let ops = by_op.(match sched.opcode.(i) with Get -> 0 | Put -> 1 | Scan -> 2) in
      ops.(proc) <- ops.(proc) + 1;
      if t_start > t_arr then queued.(proc) <- queued.(proc) + 1;
      match lat with
      | None -> ()
      | Some lat -> Mgs_obs.Hist.add lat.(my_ssmp) (t_done - t_arr)
    done
  in
  let check m =
    let bad = ref [] in
    Array.iteri (fun proc v -> if v > 0 then bad := (proc, v) :: !bad) violations;
    (match !bad with
    | [] -> ()
    | (proc, v) :: _ ->
      failwith
        (Printf.sprintf "kv: %d client-side decode violations (first: proc %d, %d)"
           (List.fold_left (fun a (_, v) -> a + v) 0 !bad)
           proc v));
    (* every key's final value carries exactly the puts the schedules
       imply; every slot is either empty or a correctly-placed key *)
    for k = 1 to p.nkeys do
      let s = (k - 1) mod nshards in
      let addr = bases.(s) + (2 * slot_of.(k)) in
      let kw = int_of_float (Mgs.Machine.peek m addr) in
      if kw <> k then
        failwith (Printf.sprintf "kv: key %d displaced: slot holds %d" k kw);
      let v = int_of_float (Mgs.Machine.peek m (addr + 1)) in
      let want_seq = expected_puts.(k) land seq_mask in
      if key_of_value v <> k || seq_of_value v <> want_seq then
        failwith
          (Printf.sprintf "kv: key %d: value %d decodes to (key %d, seq %d), want seq %d"
             k v (key_of_value v) (seq_of_value v) want_seq)
    done;
    for s = 0 to nshards - 1 do
      for h = 0 to nslots - 1 do
        let kw = int_of_float (Mgs.Machine.peek m (bases.(s) + (2 * h))) in
        if kw <> 0 && (kw < 1 || kw > p.nkeys || (kw - 1) mod nshards <> s || slot_of.(kw) <> h)
        then failwith (Printf.sprintf "kv: shard %d slot %d holds stray key %d" s h kw)
      done
    done
  in
  (body, check)

let workload p = { Mgs_harness.Sweep.name = "KV"; prepare = prepare p }

let epilogue m =
  match Mgs.Machine.trace m with
  | None -> ""
  | Some tr ->
    let sp = Mgs_obs.Trace.spans tr in
    Tail.table sp
    ^
    if Mgs_obs.Span.dropped sp > 0 then
      Printf.sprintf
        "WARNING: span store full: %d spans dropped — percentiles cover a subset of \
         requests\n"
        (Mgs_obs.Span.dropped sp)
    else ""

(* The registry entry: size -> nkeys, iters -> ops, lock, and every
   other field under its [--param] name, each defaulting to [default]'s
   value. *)
let workload_module =
  let module W = Mgs_harness.Workload in
  let name = "kv" in
  W.make ~name
    ~knobs:
      [ "size"; "iters"; "lock"; "users"; "theta"; "get"; "put"; "scan-len"; "churn";
        "period"; "burst"; "think"; "shards"; "stripes"; "home"; "seed" ]
    ~of_args:(fun a ->
      let d = default in
      let int key default = W.extra_int ~name a key ~default in
      {
        nkeys = Option.value ~default:d.nkeys a.W.size;
        ops = Option.value ~default:d.ops a.iters;
        lock = Option.value ~default:d.lock a.lock;
        users = int "users" d.users;
        theta = W.extra_float ~name a "theta" ~default:d.theta;
        get_pct = int "get" d.get_pct;
        put_pct = int "put" d.put_pct;
        scan_len = int "scan-len" d.scan_len;
        churn = int "churn" d.churn;
        period = int "period" d.period;
        burst = int "burst" d.burst;
        think = int "think" d.think;
        nshards = int "shards" d.nshards;
        stripes = int "stripes" d.stripes;
        home = Option.value ~default:d.home (List.assoc_opt "home" a.extra);
        seed = int "seed" d.seed;
      })
    ~workload ~problem_size ~tiny ~epilogue
