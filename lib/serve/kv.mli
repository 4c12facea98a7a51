(** Request-serving key-value tier on the DSM.

    Open-addressed hash shards living in shared pages (one per SSMP by
    default, homes round robin), pre-populated so every lookup hits;
    lockless get/scan probes, per-shard-locked read-modify-write puts.
    Load is open loop: each client fiber's full schedule — zipfian
    keys with churn over a [users]-sized population, get/put/scan mix,
    exponential-ish arrivals — is precomputed from [Rng.split_key]
    streams, so the offered load is a pure function of the seed and
    results are byte-identical across [-j], [--par], and reruns.

    Every completed request is recorded as a [kv.get]/[kv.put]/
    [kv.scan] root span over [scheduled arrival, completion] (queueing
    included) with [kv.queue]/[kv.lock]/[kv.access] children
    partitioning it, in the machine's span store
    ({!Mgs.Machine.enable_spans}: only these spans, unless the caller
    enabled the trace); {!Tail} renders p50/p99/p999 from those spans.
    Values encode [key * 2{^20} + puts-applied], checked by every
    client read and by a post-run sweep of every slot against the put
    counts implied by the schedules. *)

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
      (** 0 = independent arrivals; > 0 rounds every arrival up to the
          next multiple of [burst] cycles — synchronized
          thundering-herd waves *)
  think : int;  (** modelled per-request computation, cycles *)
  seed : int;
  lock : Mgs_sync.Locks.kind;  (** shard lock algorithm *)
  stripes : int;
      (** locks per shard, keys interleaved over them; 1 (the default)
          is the classic per-shard big lock, larger values let puts to
          different keys of one page proceed concurrently *)
  home : string;
      (** shard/lock placement: ["spread"] (round robin over SSMPs,
          the default) or ["packed"] (everything on SSMP 0 — the naive
          placement adaptive home migration repairs) *)
}

val default : params

val tiny : params
(** Smoke-test-sized instance. *)

val problem_size : params -> string

type opcode = Get | Put | Scan

type schedule = {
  arrival : int array;  (** scheduled arrival time of request i, cycles *)
  opcode : opcode array;
  key : int array;  (** target key (scan start key for scans) *)
}

val schedules : params -> nprocs:int -> schedule array
(** The precomputed offered load, one schedule per client fiber — a
    pure function of [params] (exposed for the tests). *)

val workload : params -> Mgs_harness.Sweep.workload
(** Verifies client-side decodes, final per-key put counts against the
    schedules, and slot-table integrity. *)

val epilogue : Mgs.Machine.t -> string
(** The {!Tail} p50/p99/p999 table rendered from the machine's span
    store (empty without one), plus a warning when spans were dropped. *)

val workload_module : (module Mgs_harness.Workload.WORKLOAD)
(** The registry entry: name ["kv"], size -> keys, iters -> ops, lock,
    plus users/theta/get/put/scan-len/churn/period/burst/think/shards/
    stripes/home/seed extra params, each defaulting to {!default}'s
    field. *)
