type bucket = User | Lock | Barrier | Mgs

let bucket_index = function User -> 0 | Lock -> 1 | Barrier -> 2 | Mgs -> 3

type t = {
  id : int;
  mutable clock : Mgs_engine.Sim.time;
  mutable busy_until : Mgs_engine.Sim.time;
  buckets : int array;
  mutable finished_at : Mgs_engine.Sim.time;
}

let create id = { id; clock = 0; busy_until = 0; buckets = Array.make 4 0; finished_at = 0 }

let advance cpu b n =
  if n < 0 then invalid_arg "Cpu.advance: negative cycles";
  cpu.clock <- cpu.clock + n;
  let i = bucket_index b in
  cpu.buckets.(i) <- cpu.buckets.(i) + n

let catch_up_to cpu b t = if cpu.clock < t then advance cpu b (t - cpu.clock)

let sync_busy cpu = catch_up_to cpu Mgs cpu.busy_until

let resume_charge cpu b t =
  catch_up_to cpu Mgs (Int.min cpu.busy_until t);
  catch_up_to cpu b t

let occupy cpu ~at ~cost =
  if cost < 0 then invalid_arg "Cpu.occupy: negative cost";
  let start = Int.max at cpu.busy_until in
  let fin = start + cost in
  cpu.busy_until <- fin;
  fin

let finish cpu = cpu.finished_at <- cpu.clock

let bucket_cycles cpu b = cpu.buckets.(bucket_index b)

let total_cycles cpu = Array.fold_left ( + ) 0 cpu.buckets
