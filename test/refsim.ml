(* Reference event engine: the order the sharded engine must produce,
   kept as the oracle of the micro-DAG and emit-order properties.  Each
   shard keeps its own clock and scheduling counter.  An event is keyed
   by its fire time, then the scheduling shard's clock, id and counter
   — the scheduling shard being the one running the scheduling event,
   or the destination for host code — and every pending event waits in
   one ordered map.  An event scheduled in the past runs at the
   scheduling shard's present.  No window, outbox or heap: nothing here
   is shared with the engine. *)

module Q = Map.Make (struct
  type t = int * int * int * int (* fire, sched, src, seq *)

  let compare = compare
end)

type t = {
  clock : int array; (* per shard *)
  ctr : int array; (* per shard: the next [seq] *)
  mutable cur : int; (* the shard running an event; -1 for host code *)
  mutable queue : (int * (unit -> unit)) Q.t; (* the executing shard and the thunk *)
  mutable executed : int;
  mutable clamped : int;
}

let create ~shards =
  {
    clock = Array.make shards 0;
    ctr = Array.make shards 0;
    cur = -1;
    queue = Q.empty;
    executed = 0;
    clamped = 0;
  }

let now r = if r.cur >= 0 then r.clock.(r.cur) else Array.fold_left max 0 r.clock

let at_shard r ~shard t f =
  let s = if r.cur >= 0 then r.cur else shard in
  let fire =
    if t < r.clock.(s) then begin
      r.clamped <- r.clamped + 1;
      r.clock.(s)
    end
    else t
  in
  let seq = r.ctr.(s) in
  r.ctr.(s) <- seq + 1;
  r.queue <- Q.add (fire, r.clock.(s), s, seq) (shard, f) r.queue

let rec run r =
  match Q.min_binding_opt r.queue with
  | None -> ()
  | Some (((fire, _, _, _) as k), (shard, f)) ->
    r.queue <- Q.remove k r.queue;
    if fire > r.clock.(shard) then r.clock.(shard) <- fire;
    r.executed <- r.executed + 1;
    r.cur <- shard;
    f ();
    r.cur <- -1;
    run r

let executed r = r.executed

let clamped r = r.clamped
