type t = { q : (unit -> unit) Queue.t }

let create () = { q = Queue.create () }

let length t = Queue.length t.q

let is_empty t = Queue.is_empty t.q

let park t = Fiber.suspend (fun resume -> Queue.add resume t.q)

let park_thunk t k = Queue.add k t.q

let wake_one sim t =
  match Queue.take_opt t.q with
  | None -> false
  | Some k ->
    Sim.after sim 0 k;
    true

let wake_all sim t =
  let n = Queue.length t.q in
  while not (Queue.is_empty t.q) do
    let k = Queue.take t.q in
    Sim.after sim 0 k
  done;
  n
