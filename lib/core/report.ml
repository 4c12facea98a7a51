open State

type breakdown = { user : float; lock : float; barrier : float; mgs : float }

type outcome =
  | Completed
  | Partitioned of {
      src_ssmp : int;
      dst_ssmp : int;
      tag : string;
      retries : int;
    }

type t = {
  outcome : outcome;
  nprocs : int;
  cluster : int;
  runtime : int;
  breakdown : breakdown;
  per_proc_total : int array;
  pstats : Pstats.t;
  cache : Coherence.stats;
  lan_messages : int;
  lan_words : int;
  messages_by_tag : (string * int) list;
  lock_acquires : int;
  lock_hits : int;
  barrier_episodes : int;
  sim_events : int;
  peak_queue : int;
  wall_seconds : float;
}

let aggregate_cache m : Coherence.stats =
  let acc : Coherence.stats =
    {
      hits = 0;
      local_misses = 0;
      remote_misses = 0;
      misses_2party = 0;
      misses_3party = 0;
      software_extensions = 0;
    }
  in
  Array.iter
    (fun cache ->
      let s = Coherence.stats cache in
      acc.hits <- acc.hits + s.hits;
      acc.local_misses <- acc.local_misses + s.local_misses;
      acc.remote_misses <- acc.remote_misses + s.remote_misses;
      acc.misses_2party <- acc.misses_2party + s.misses_2party;
      acc.misses_3party <- acc.misses_3party + s.misses_3party;
      acc.software_extensions <- acc.software_extensions + s.software_extensions)
    m.caches;
  acc

let of_machine ~wall_seconds ~outcome m =
  let n = m.topo.Topology.nprocs in
  let mean bucket =
    let sum = Array.fold_left (fun acc cpu -> acc + Cpu.bucket_cycles cpu bucket) 0 m.cpus in
    float_of_int sum /. float_of_int n
  in
  let lan_stats = Lan.stats m.lan in
  let total = State.total m in
  {
    outcome;
    nprocs = n;
    cluster = m.topo.Topology.cluster;
    runtime = Array.fold_left (fun acc cpu -> Int.max acc cpu.Cpu.finished_at) 0 m.cpus;
    breakdown =
      { user = mean Cpu.User; lock = mean Cpu.Lock; barrier = mean Cpu.Barrier; mgs = mean Cpu.Mgs };
    per_proc_total = Array.map Cpu.total_cycles m.cpus;
    (* transport counters live with the protocol counters: they are
       part of the same "what did the coherence traffic cost" story *)
    pstats =
      Pstats.snapshot total ~net_retries:lan_stats.Lan.retransmits
        ~net_dups:lan_stats.Lan.dup_drops ~net_timeouts:lan_stats.Lan.timeouts;
    cache = aggregate_cache m;
    lan_messages = lan_stats.Lan.messages;
    lan_words = lan_stats.Lan.data_words;
    messages_by_tag = Am.counts m.am;
    lock_acquires = total Pstats.lock_acquires;
    lock_hits = total Pstats.lock_hits;
    barrier_episodes = total Pstats.barrier_episodes;
    sim_events = Sim.events_executed m.sim;
    peak_queue = Sim.peak_pending m.sim;
    wall_seconds;
  }

let total b = b.user +. b.lock +. b.barrier +. b.mgs

let lock_hit_ratio r =
  if r.lock_acquires = 0 then 1.0
  else float_of_int r.lock_hits /. float_of_int r.lock_acquires

let events_per_second r =
  if r.wall_seconds <= 0. then 0.
  else float_of_int r.sim_events /. r.wall_seconds

let pp_throughput ppf r =
  Format.fprintf ppf "events=%d peak_queue=%d wall=%.3fs" r.sim_events r.peak_queue
    r.wall_seconds;
  if r.wall_seconds > 0. then
    Format.fprintf ppf " (%.0f events/s)" (events_per_second r)

let completed r = r.outcome = Completed

let pp_outcome ppf = function
  | Completed -> Format.fprintf ppf "completed"
  | Partitioned { src_ssmp; dst_ssmp; tag; retries } ->
    Format.fprintf ppf "PARTITIONED (ssmp %d->%d, %s after %d retries)" src_ssmp dst_ssmp tag
      retries

let pp ppf r =
  Format.fprintf ppf
    "P=%d C=%d runtime=%d cycles | user=%.0f lock=%.0f barrier=%.0f mgs=%.0f | lan=%d msgs \
     %d words | locks %d/%d hits | %a | %a"
    r.nprocs r.cluster r.runtime r.breakdown.user r.breakdown.lock r.breakdown.barrier
    r.breakdown.mgs r.lan_messages r.lan_words r.lock_hits r.lock_acquires Pstats.pp r.pstats
    pp_throughput r;
  match r.outcome with
  | Completed -> ()
  | Partitioned _ as o -> Format.fprintf ppf " | %a" pp_outcome o

let ident r =
  let b = r.breakdown and c = r.cache in
  let list f l = String.concat "," (List.map f l) in
  Format.asprintf
    "out=%a P=%d C=%d rt=%d ev=%d | user=%.3f lock=%.3f barrier=%.3f mgs=%.3f | lan=%d/%d \
     | sync=%d/%d/%d | cache=%d,%d,%d,%d,%d,%d | tags=%s | procs=%s | %a"
    pp_outcome r.outcome r.nprocs r.cluster r.runtime r.sim_events b.user b.lock b.barrier
    b.mgs r.lan_messages r.lan_words r.lock_acquires r.lock_hits r.barrier_episodes c.hits
    c.local_misses c.remote_misses c.misses_2party c.misses_3party c.software_extensions
    (list (fun (t, n) -> Printf.sprintf "%s:%d" t n) r.messages_by_tag)
    (list string_of_int (Array.to_list r.per_proc_total))
    Pstats.pp r.pstats
