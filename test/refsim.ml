(* Reference event engine: the semantics the sharded engine must
   reproduce, kept as the oracle of the micro-DAG properties.  One
   global clock; an event scheduled in the past runs at the present;
   events due at the same time run in scheduling order (a global
   insertion counter).  Shards are only labels here. *)

module Q = Map.Make (struct
  type t = int * int (* fire time, insertion counter *)

  let compare = compare
end)

type t = {
  mutable clock : int;
  mutable inserted : int;
  mutable queue : (unit -> unit) Q.t;
  mutable executed : int;
  mutable clamped : int;
}

let create () = { clock = 0; inserted = 0; queue = Q.empty; executed = 0; clamped = 0 }

let now r = r.clock

let at_shard r ~shard:_ t f =
  let t =
    if t < r.clock then begin
      r.clamped <- r.clamped + 1;
      r.clock
    end
    else t
  in
  r.inserted <- r.inserted + 1;
  r.queue <- Q.add (t, r.inserted) f r.queue

let rec run r =
  match Q.min_binding_opt r.queue with
  | None -> ()
  | Some (((t, _) as k), f) ->
    r.queue <- Q.remove k r.queue;
    r.clock <- t;
    r.executed <- r.executed + 1;
    f ();
    run r

let executed r = r.executed

let clamped r = r.clamped

(* Host-scheduled roots due at the same time tie-break by shard id in
   genealogy order, so the engine matches this model only when such
   roots are seeded in shard order — as Machine.run does by spawning
   fibers in processor order.  Events created during execution carry
   their full genealogy and need no such discipline. *)
let seeding_order plan =
  List.stable_sort (fun (s1, t1, _) (s2, t2, _) -> compare (t1, s1) (t2, s2)) plan
