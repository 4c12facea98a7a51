open Mgs.State

(* Mesa-style condition variables over any lock kind.

   The wait queue is distributed state: it lives at a home processor and
   is touched only inside active-message handlers running there, so
   fibers on different engine shards never race on it.  [wait] registers
   at the home with a blocking round-trip *while still holding the
   lock* — a signaller (which must also hold the lock) therefore cannot
   miss a waiter that released before it signalled — then releases the
   lock and parks on a fiber-private wait queue.  [signal] and
   [broadcast] are round-trips too: the home dequeues, fires CV_WAKE
   messages at the waiters' processors, and acks with the count, which
   the caller returns synchronously.

   Semantics stay Mesa: a woken waiter reacquires the lock in
   competition with every other contender, so predicates must be
   re-checked in a loop. *)

type waiter = {
  w_proc : int;
  w_q : Mgs_engine.Waitq.t; (* fiber-private: parked on the waiter's shard *)
}

type t = {
  m : Mgs.State.t;
  lock : Locks.t;
  queue : waiter Queue.t; (* home-side: touched only in home handlers *)
  (* per-SSMP stat cells, bumped on the owning shard and summed by the
     accessors *)
  parked : int array;
  waits : int array;
  signals : int array;
  wakeups : int array;
}

let asum = Array.fold_left ( + ) 0

(* The queue's home: SSMP 0's first processor.  Keeping it fixed (rather
   than following the lock's home) keeps the CV protocol independent of
   which lock implementation it is layered over. *)
let home_proc t = Topology.first_proc_of_ssmp t.m.topo 0

let create (m : Mgs.Machine.t) lock =
  let n = m.topo.Topology.nssmps in
  let t =
    {
      m;
      lock;
      queue = Queue.create ();
      parked = Array.make n 0;
      waits = Array.make n 0;
      signals = Array.make n 0;
      wakeups = Array.make n 0;
    }
  in
  m.sync_hooks <-
    {
      sh_name = Printf.sprintf "condvar:%s" (Locks.name lock);
      sh_reset =
        (fun () ->
          Queue.clear t.queue;
          Array.fill t.parked 0 n 0;
          Array.fill t.waits 0 n 0;
          Array.fill t.signals 0 n 0;
          Array.fill t.wakeups 0 n 0);
      sh_waiters = (fun () -> asum t.parked);
      sh_waiters_cell = (fun c -> t.parked.(c));
    }
    :: m.sync_hooks;
  t

(* Round-trip to the home: run [f] in a handler there, then wake the
   caller.  The calling fiber parks until the ack arrives; elapsed time
   is charged to the Lock bucket by the caller's [resume_charge]. *)
let rpc t ~tag ~proc f =
  let m = t.m in
  let ack = Mgs_engine.Waitq.create () in
  Am.post m.am ~tag ~src:proc ~dst:(home_proc t) ~words:0
    ~cost:m.costs.sync.lock_local_acquire (fun _ ->
      f ();
      Am.post m.am ~tag:"CV_ACK" ~src:(home_proc t) ~dst:proc ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _ ->
          ignore (Mgs_engine.Waitq.wake_one m.sim ack)));
  Mgs_engine.Waitq.park ack

(* Home-side: send a wake-up to [w]'s processor; the handler runs on the
   waiter's own shard and unparks the fiber there. *)
let fire t w =
  let m = t.m in
  Am.post m.am ~tag:"CV_WAKE" ~src:(home_proc t) ~dst:w.w_proc ~words:0
    ~cost:m.costs.sync.lock_local_acquire (fun _ ->
      ignore (Mgs_engine.Waitq.wake_one m.sim w.w_q))

let wait (ctx : Mgs.Api.ctx) t =
  let m = t.m in
  let cpu = ctx.cpu in
  let proc = ctx.Mgs.Api.proc in
  let cell = Topology.ssmp_of_proc m.topo proc in
  Cpu.sync_busy cpu;
  t.waits.(cell) <- t.waits.(cell) + 1;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.cv_wait" ~src:proc ~dst:(home_proc t)
    ~vpn:(-1) ~words:0 ~cost:0 ~dur:0;
  let w = { w_proc = proc; w_q = Mgs_engine.Waitq.create () } in
  (* Register while still holding the lock: once the round-trip is done
     the waiter is visible at the home, so a signaller that acquires the
     lock after our release cannot miss us. *)
  t.parked.(cell) <- t.parked.(cell) + 1;
  Cpu.advance cpu Lock m.costs.proto.msg_send;
  rpc t ~tag:"CV_WAIT" ~proc (fun () -> Queue.add w t.queue);
  Cpu.resume_charge cpu Lock (Sim.now m.sim);
  Locks.release ctx t.lock;
  Mgs_engine.Waitq.park w.w_q;
  Cpu.resume_charge cpu Lock (Sim.now m.sim);
  t.parked.(cell) <- t.parked.(cell) - 1;
  t.wakeups.(cell) <- t.wakeups.(cell) + 1;
  Locks.acquire ctx t.lock

let signal (ctx : Mgs.Api.ctx) t =
  let m = t.m in
  let cpu = ctx.cpu in
  let proc = ctx.Mgs.Api.proc in
  let cell = Topology.ssmp_of_proc m.topo proc in
  Cpu.sync_busy cpu;
  Cpu.advance cpu Lock m.costs.sync.lock_local_release;
  t.signals.(cell) <- t.signals.(cell) + 1;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.cv_signal" ~src:proc ~dst:(home_proc t)
    ~vpn:(-1) ~words:0 ~cost:0 ~dur:0;
  let woke = ref false in
  rpc t ~tag:"CV_SIG" ~proc (fun () ->
      match Queue.take_opt t.queue with
      | None -> ()
      | Some w ->
        woke := true;
        fire t w);
  Cpu.resume_charge cpu Lock (Sim.now m.sim);
  !woke

let broadcast (ctx : Mgs.Api.ctx) t =
  let m = t.m in
  let cpu = ctx.cpu in
  let proc = ctx.Mgs.Api.proc in
  let cell = Topology.ssmp_of_proc m.topo proc in
  Cpu.sync_busy cpu;
  Cpu.advance cpu Lock m.costs.sync.lock_local_release;
  t.signals.(cell) <- t.signals.(cell) + 1;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.cv_broadcast" ~src:proc
    ~dst:(home_proc t) ~vpn:(-1) ~words:0 ~cost:0 ~dur:0;
  let count = ref 0 in
  rpc t ~tag:"CV_BCAST" ~proc (fun () ->
      count := Queue.length t.queue;
      Queue.iter (fire t) t.queue;
      Queue.clear t.queue);
  Cpu.resume_charge cpu Lock (Sim.now m.sim);
  !count

let waiters t = asum t.parked

let waits t = asum t.waits

let wakeups t = asum t.wakeups
