type t = { mutable locked : bool; waiters : (unit -> unit) Queue.t }

let create () = { locked = false; waiters = Queue.create () }

let held t = t.locked

let acquire_fiber _sim t =
  if not t.locked then begin
    t.locked <- true;
    false
  end
  else begin
    Mgs_engine.Fiber.suspend (fun resume -> Queue.add resume t.waiters);
    true
  end

let try_acquire t =
  let free = not t.locked in
  t.locked <- true;
  free

let acquire_k _sim t k =
  if not t.locked then begin
    t.locked <- true;
    k ()
  end
  else Queue.add k t.waiters

let release sim t =
  if not t.locked then invalid_arg "Mlock.release: not held";
  match Queue.take_opt t.waiters with
  | None -> t.locked <- false
  | Some k ->
    (* Direct handoff: [locked] stays true and the waiter runs as a
       fresh event so the releaser finishes its own step first. *)
    Mgs_engine.Sim.after sim 0 k
