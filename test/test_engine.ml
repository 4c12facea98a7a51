(* Tests for the discrete-event core: the event heap, event ordering,
   clamping, fibers, and wait queues. *)

module Sim = Mgs_engine.Sim
module Fiber = Mgs_engine.Fiber
module Waitq = Mgs_engine.Waitq
module Q = Mgs_engine.Shardq

(* --- the event heap ---------------------------------------------------- *)

let push q ~fire ?(sched = 0) ?(src = 0) ~seq f =
  Q.push q ~key:(Q.key ~fire ~sched ~src ~seq ~parent:Q.no_parent) ~own:0 f

let test_pqueue_basic () =
  let q = Q.create () in
  Alcotest.(check bool) "fresh empty" true (Q.is_empty q);
  let log = ref [] in
  List.iteri
    (fun seq (fire, v) -> push q ~fire ~seq (fun () -> log := v :: !log))
    [ (5, "e"); (1, "a"); (3, "c") ];
  Alcotest.(check int) "length" 3 (Q.length q);
  Alcotest.(check int) "min fire" 1 (Q.min_fire q);
  while not (Q.is_empty q) do
    Q.pop_min q ()
  done;
  Alcotest.(check (list string)) "fire order" [ "a"; "c"; "e" ] (List.rev !log);
  Alcotest.check_raises "pop when empty" Q.Empty_queue (fun () -> ignore (Q.pop_min q : unit -> unit))

let test_pqueue_fifo_ties () =
  let q = Q.create () in
  let log = ref [] in
  List.iteri (fun seq v -> push q ~fire:7 ~seq (fun () -> log := v :: !log)) [ "x"; "y"; "z" ];
  while not (Q.is_empty q) do
    Q.pop_min q ()
  done;
  Alcotest.(check (list string)) "ties pop in scheduling order" [ "x"; "y"; "z" ]
    (List.rev !log)

(* 10k random pushes, pops and re-keys, interleaved, against a
   sorted-list model.  Pushes outnumber pops about two to one, so the
   heap runs a few thousand deep and its slab grows mid-run, reusing the
   slots that pops free.  The narrow ranges make ties on (fire, sched)
   and src common; [seq] counts pushes and re-keys, so keys are
   distinct.  Before each pop, the minimum's message word must be the
   model's; the pop must return the model's minimum: its key, its owner
   shard and its own payload, the thunk or timed callback pushed with
   it.  A re-key gives the minimum a new key, earlier or later, and no
   message word, and keeps its owner and payload. *)
type entry = {
  e_key : int * int * int * int; (* fire, sched, src, seq *)
  e_id : int; (* the push that made it: what its payload records *)
  e_own : int;
  e_msg : int;
  e_fn : unit -> unit;
  e_timed : int -> unit;
}

type heap_op = Push | Pop | Rekey

let prop_pqueue_10k =
  QCheck2.Test.make ~name:"10k interleaved pushes, pops and re-keys match a sorted-list model"
    ~count:10
    QCheck2.Gen.(
      list_size (return 10_000)
        (pair
           (frequencyl [ (60, Push); (30, Pop); (10, Rekey) ])
           (quad (int_bound 30) (int_bound 4) (int_bound 3) (pair (int_bound 7) bool))))
    (fun ops ->
      let q = Q.create () in
      let model = ref [] and size = ref 0 and seq = ref 0 and depth = ref 0 in
      let ok = ref true in
      let ran = ref (-1) in
      let insert e = model := List.merge (fun a b -> compare a.e_key b.e_key) [ e ] !model in
      let raises_empty f = match f () with () -> false | exception Q.Empty_queue -> true in
      let pop () =
        match !model with
        | [] ->
          ok :=
            !ok
            && raises_empty (fun () -> ignore (Q.peek q : int))
            && raises_empty (fun () -> ignore (Q.pop_min q : unit -> unit))
        | e :: rest ->
          model := rest;
          decr size;
          let msg = Q.peek q in
          let fn = Q.pop_min q in
          let timed = Q.take_timed q in
          let fire, sched, src, seq = e.e_key in
          ran := -1;
          if timed == Q.nop_timed then fn () else timed (Q.popped_fire q);
          ok :=
            !ok && msg = e.e_msg && fn == e.e_fn && timed == e.e_timed
            && Q.popped_fire q = fire
            && Q.popped_sched q = sched
            && Q.popped_srcseq q = Q.pack ~src ~seq
            && Q.popped_own q = e.e_own && !ran = e.e_id
            && Q.length q = !size
      in
      let rekey (fire, sched, src) =
        let id = !seq in
        incr seq;
        match !model with
        | [] ->
          ok :=
            !ok && raises_empty (fun () -> Q.rekey_min q ~fire ~sched ~srcseq:(Q.pack ~src ~seq:id))
        | e :: rest ->
          model := rest;
          Q.rekey_min q ~fire ~sched ~srcseq:(Q.pack ~src ~seq:id);
          insert { e with e_key = (fire, sched, src, id); e_msg = -1 };
          ok := !ok && Q.length q = !size
      in
      List.iter
        (fun (op, (fire, sched, src, (own, timed))) ->
          match op with
          | Pop -> pop ()
          | Rekey -> rekey (fire, sched, src)
          | Push ->
            let id = !seq in
            incr seq;
            let e =
              {
                e_key = (fire, sched, src, id);
                e_id = id;
                e_own = own;
                e_msg = id;
                e_fn = (if timed then Q.nop else fun () -> ran := id);
                e_timed = (if timed then fun _ -> ran := id else Q.nop_timed);
              }
            in
            Q.add q ~fire ~sched ~srcseq:(Q.pack ~src ~seq:id) ~own ~msg:id e.e_fn e.e_timed;
            insert e;
            incr size;
            depth := max !depth !size)
        ops;
      while !size > 0 do
        pop ()
      done;
      !ok && Q.is_empty q && !depth > 1_000)

(* --- the simulator ------------------------------------------------------ *)

let test_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 30 (fun () -> log := 30 :: !log);
  Sim.at sim 10 (fun () -> log := 10 :: !log);
  Sim.at sim 20 (fun () -> log := 20 :: !log);
  let n = Sim.run sim () in
  Alcotest.(check int) "events" 3 n;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.now sim)

let test_tie_break_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.at sim 7 (fun () -> log := i :: !log)
  done;
  ignore (Sim.run sim ());
  Alcotest.(check (list int)) "same-time events run in schedule order" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_past_clamped () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  Sim.at sim 100 (fun () -> Sim.at sim 50 (fun () -> fired_at := Sim.now sim));
  ignore (Sim.run sim ());
  Alcotest.(check int) "past schedule runs now" 100 !fired_at

let test_after_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.after: negative delay")
    (fun () -> Sim.after sim (-1) (fun () -> ()))

let test_event_limit () =
  let sim = Sim.create () in
  let rec forever () = Sim.after sim 1 forever in
  forever ();
  (* the failure must carry the diagnosis: limit, progress, clock, and
     queue depth (a bare "livelock?" gave nothing to debug with) *)
  Alcotest.check_raises "limit trips"
    (Failure
       "Sim.run: event limit exhausted (livelock?): limit=100 executed=100 clock=100 \
        pending=1") (fun () -> ignore (Sim.run sim ~limit:100 ()))

let test_clamp_counted () =
  let sim = Sim.create () in
  Sim.at sim 100 (fun () ->
      Sim.at sim 50 (fun () -> ());
      Sim.at sim 60 (fun () -> ());
      Sim.at sim 200 (fun () -> ()));
  ignore (Sim.run sim ());
  let st = Sim.stats sim in
  Alcotest.(check int) "two past-due schedules counted" 2 st.Sim.s_clamped;
  Alcotest.(check int) "executed" 4 st.Sim.s_executed

(* A cross-shard message that lands after its destination's clock (a
   lookahead violation by construction: due in 10 cycles where the
   window is 1000 wide) is clamped-and-counted by default... *)
let test_sharded_late_merge_clamped () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.set_jobs sim 2;
  (* shard 1 busies itself deep into the first window *)
  Sim.at_shard sim ~shard:1 900 (fun () -> ());
  let landed = ref (-1) in
  Sim.at_shard sim ~shard:0 10 (fun () ->
      Sim.at_shard sim ~shard:1 20 (fun () -> landed := Sim.now sim));
  ignore (Sim.run sim ());
  Alcotest.(check int) "late merge clamped to the destination clock" 900 !landed;
  Alcotest.(check int) "clamp counted" 1 (Sim.stats sim).Sim.s_clamped

(* ...and raises under strict mode, for debugging lookahead bugs. *)
let test_sharded_strict_raises () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.set_jobs sim 2;
  Sim.set_strict sim true;
  Sim.at_shard sim ~shard:1 900 (fun () -> ());
  Sim.at_shard sim ~shard:0 10 (fun () ->
      Sim.at_shard sim ~shard:1 20 (fun () -> ()));
  match Sim.run sim () with
  | _ -> Alcotest.fail "expected Late_delivery"
  | exception Sim.Late_delivery { dst; fire; clock } ->
    Alcotest.(check int) "dst shard" 1 dst;
    Alcotest.(check int) "fire" 20 fire;
    Alcotest.(check int) "destination clock" 900 clock

(* A zero lookahead admits no window: the engine runs on one domain
   whatever job count it is given, and zero-delay cross-shard hops run in
   scheduling order.  A simulator that has scheduled events cannot be
   repartitioned. *)
let test_lookahead_zero () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:4 ~lookahead:0;
  Sim.set_jobs sim 4;
  let log = ref [] in
  for s = 0 to 3 do
    Sim.at_shard sim ~shard:s 0 (fun () ->
        Sim.at_shard sim ~shard:((s + 1) mod 4) 0 (fun () -> log := s :: !log))
  done;
  Alcotest.(check int) "events" 8 (Sim.run sim ());
  Alcotest.(check (list int)) "hops in scheduling order" [ 0; 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "no window opened" 0 (Sim.windows sim);
  Alcotest.check_raises "no repartition after scheduling"
    (Invalid_argument "Sim.make_sharded: events already scheduled") (fun () ->
      Sim.make_sharded sim ~nshards:2 ~lookahead:0)

(* The job count picks which heaps hold pending events, so it changes
   only while nothing is pending. *)
let test_set_jobs_refuses_pending () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.at_shard sim ~shard:1 10 (fun () -> ());
  Alcotest.check_raises "an event is pending"
    (Invalid_argument "Sim.set_jobs: events pending") (fun () -> Sim.set_jobs sim 2);
  Sim.set_jobs sim 1;
  Alcotest.(check int) "the event still runs" 1 (Sim.run sim ());
  Sim.set_jobs sim 2;
  Sim.at_shard sim ~shard:1 2000 (fun () -> ());
  ignore (Sim.run sim ());
  Alcotest.(check bool) "windowed once nothing was pending" true (Sim.windows sim > 0)

(* A count that clamps to the current one is no change, so it is
   accepted with events pending: above the shard count, and on a
   lookahead-0 simulator, which only drains one heap. *)
let test_set_jobs_unchanged_count () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.set_jobs sim 2;
  Sim.at_shard sim ~shard:1 2000 (fun () -> ());
  Sim.set_jobs sim 8;
  Alcotest.(check int) "the event runs" 1 (Sim.run sim ());
  Alcotest.(check bool) "on two domains" true (Sim.windows sim > 0);
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:0;
  Sim.at_shard sim ~shard:1 10 (fun () -> ());
  Sim.set_jobs sim 4;
  Alcotest.(check int) "the event runs on one heap" 1 (Sim.run sim ());
  Alcotest.(check int) "no window" 0 (Sim.windows sim)

(* The running record carries the executing event's shard and key.
   Keys by hand: an event scheduled from host code is minted by its
   destination shard at clock 0; one scheduled inside an event by the
   executing shard, at its clock, with its next counter value.  The
   cross-shard send waits in the outbox at jobs 2, and the schedule
   into the past fires at its shard's clock. *)
let test_running_stamp () =
  List.iter
    (fun jobs ->
      let sim = Sim.create () in
      Sim.make_sharded sim ~nshards:2 ~lookahead:100;
      Sim.set_jobs sim jobs;
      let log = ref [] in
      let record name =
        let r = Sim.running () in
        log := (name, (r.Sim.shard, r.Sim.fire, r.Sim.sched, r.Sim.srcseq)) :: !log
      in
      let record_at name (_ : int) = record name in
      Sim.at_shard sim ~shard:1 0 (fun () ->
          record "b";
          Sim.at sim 30 (fun () -> record "e"));
      Sim.at_shard sim ~shard:0 0 (fun () ->
          record "a";
          Sim.at sim 50 (fun () ->
              record "c";
              Sim.at_k sim 60 (record_at "f");
              Sim.at sim 20 (fun () -> record "clamped"));
          Sim.at_shard_k sim ~shard:1 150 (fun _ ->
              record "d";
              Sim.at sim 150 (fun () -> record "g")));
      ignore (Sim.run sim ());
      let key shard fire sched src seq = (shard, fire, sched, Q.pack ~src ~seq) in
      let expected =
        [
          ("a", key 0 0 0 0 0);
          ("b", key 1 0 0 1 0);
          ("e", key 1 30 0 1 1);
          ("c", key 0 50 0 0 1);
          ("clamped", key 0 50 50 0 4);
          ("f", key 0 60 50 0 3);
          ("d", key 1 150 0 0 2);
          ("g", key 1 150 150 1 2);
        ]
      in
      List.iter
        (fun (name, want) ->
          let shard, fire, sched, srcseq = List.assoc name !log in
          let ws, wf, wsc, wss = want in
          Alcotest.(check (list int))
            (Printf.sprintf "%s at jobs %d: shard, fire, sched, src/seq" name jobs)
            [ ws; wf; wsc; wss ] [ shard; fire; sched; srcseq ])
        expected;
      Alcotest.(check int) "every event recorded" (List.length expected) (List.length !log);
      Alcotest.(check int) "host code runs outside an event" (-1) (Sim.running ()).Sim.shard;
      Alcotest.(check bool) (Printf.sprintf "windowed at jobs %d" jobs) (jobs > 1)
        (Sim.windows sim > 0))
    [ 1; 2 ]

(* After an event runs, nothing in the engine reaches its payload: a
   closure that captured a large array, sent across shards (through the
   outbox at jobs 2), as a thunk and as a timed callback, leaves the
   array collectable once the run ends, while the simulator itself is
   still alive. *)
let test_ran_payload_unreachable () =
  List.iter
    (fun (jobs, timed) ->
      let sim = Sim.create () in
      Sim.make_sharded sim ~nshards:2 ~lookahead:100;
      Sim.set_jobs sim jobs;
      let w = Weak.create 1 in
      let sum = ref 0 in
      Sim.at_shard sim ~shard:0 0 (fun () ->
          let big = Array.make 100_000 1 in
          Weak.set w 0 (Some big);
          if timed then Sim.at_shard_k sim ~shard:1 200 (fun _ -> sum := !sum + big.(0))
          else Sim.at_shard sim ~shard:1 200 (fun () -> sum := !sum + big.(0)));
      ignore (Sim.run sim ());
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "payload collected (jobs %d, %s)" jobs
           (if timed then "timed" else "thunk"))
        false (Weak.check w 0);
      Alcotest.(check int) "the event ran" 1 !sum;
      Alcotest.(check int) "the simulator is still reachable" 2 (Sim.events_executed sim))
    [ (1, false); (1, true); (2, false); (2, true) ]

(* At lookahead 0 a key may sort before its creator's: the event a
   zero-delay cross-shard event creates ties it on (fire, sched) and
   wins on its lower shard id.  The one heap runs it next, so execution
   still follows creation. *)
let test_zero_lookahead_order () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:0;
  let log = ref [] in
  let record name =
    let r = Sim.running () in
    log := (name, (r.Sim.fire, r.Sim.sched, r.Sim.srcseq)) :: !log
  in
  Sim.at_shard sim ~shard:1 10 (fun () ->
      record "root";
      Sim.at_shard sim ~shard:0 10 (fun () ->
          record "cross";
          Sim.at sim 10 (fun () -> record "child")));
  ignore (Sim.run sim ());
  Alcotest.(check (list string)) "creation order" [ "root"; "cross"; "child" ]
    (List.rev_map fst !log);
  let key name = List.assoc name !log in
  Alcotest.(check bool) "the child's key sorts before its creator's" true
    (compare (key "child") (key "cross") < 0)

(* Opening, draining and closing a window allocates nothing on the
   coordinating domain: two windowed runs of the same events, one
   spaced to open ten times the windows of the other, allocate the
   same there (the events allocate alike in both). *)
let test_windows_allocate_nothing () =
  let run ~gap =
    let sim = Sim.create () in
    Sim.make_sharded sim ~nshards:2 ~lookahead:100;
    Sim.set_jobs sim 2;
    let rec tick n () = if n > 0 then Sim.after sim gap (tick (n - 1)) in
    for shard = 0 to 1 do
      Sim.at_shard sim ~shard 0 (tick 20_000)
    done;
    let w0 = Gc.minor_words () in
    ignore (Sim.run sim ());
    (Gc.minor_words () -. w0, Sim.windows sim)
  in
  let words_few, few = run ~gap:10 in
  let words_many, many = run ~gap:100 in
  Alcotest.(check (pair int int)) "windows opened" (2_001, 20_001) (few, many);
  let per_window = (words_many -. words_few) /. float_of_int (many - few) in
  if Float.abs per_window >= 0.5 then
    Alcotest.failf "%.2f words allocated per window" per_window

(* A cross-shard send inside a window allocates nothing.  The same
   events run twice, once with every send local and once with every
   send crossing to the other shard; each of two chains re-sends one
   closure built before the run.  On the calling domain, which runs
   shard 0's events, both runs allocate alike, and under half a word
   per event. *)
let test_cross_sends_allocate_nothing () =
  let sends = 20_000 in
  let run ~cross =
    let sim = Sim.create () in
    Sim.make_sharded sim ~nshards:2 ~lookahead:100;
    Sim.set_jobs sim 2;
    (* a chain has one event pending at a time, and the window barrier
       orders its hops between domains, so its counter is never shared *)
    let chain () =
      let left = ref sends in
      let rec tick () =
        if !left > 0 then begin
          decr left;
          let dst = if cross then 1 - Sim.cur () else Sim.cur () in
          Sim.at_shard sim ~shard:dst (Sim.now sim + 100) tick
        end
      in
      tick
    in
    for shard = 0 to 1 do
      Sim.at_shard sim ~shard 0 (chain ())
    done;
    let w0 = Gc.minor_words () in
    ignore (Sim.run sim ());
    let words = Gc.minor_words () -. w0 in
    (words /. float_of_int (Sim.shard_executed sim 0), words, Sim.windows sim)
  in
  let per_local, words_local, wl = run ~cross:false in
  let per_cross, words_cross, wc = run ~cross:true in
  Alcotest.(check (pair int int)) "windows opened" (sends + 1, sends + 1) (wl, wc);
  let per_send = (words_cross -. words_local) /. float_of_int sends in
  if Float.abs per_send >= 0.5 then
    Alcotest.failf "%.2f words allocated per cross-shard send" per_send;
  List.iter
    (fun (what, per) ->
      if per >= 0.5 then
        Alcotest.failf "%s: %.2f words per event on the calling domain" what per)
    [ ("local sends", per_local); ("cross-shard sends", per_cross) ]

(* Minor-heap words per operation when [run] performs [n] of them;
   setup inside [run] must cost under half a word per operation. *)
let words_per ~n run =
  let w0 = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. w0) /. float_of_int n

let within_budget what ~words per =
  if per >= float_of_int words +. 0.5 then
    Alcotest.failf "%s: %.2f words, budget %d" what per words

(* An event whose callback already exists allocates nothing: a timed
   callback that reschedules itself with the fire time it receives, and
   a thunk that reschedules itself, on one heap and windowed (shard 0
   runs on the calling domain). *)
let test_event_words () =
  let n = 100_000 in
  List.iter
    (fun jobs ->
      let sim = Sim.create () in
      Sim.make_sharded sim ~nshards:2 ~lookahead:100;
      Sim.set_jobs sim jobs;
      let left = ref n in
      let rec tick t =
        if !left > 0 then begin
          decr left;
          Sim.at_k sim (t + 1) tick
        end
      in
      Sim.at_k sim 0 tick;
      within_budget
        (Printf.sprintf "timed event, jobs %d" jobs)
        ~words:0
        (words_per ~n (fun () -> ignore (Sim.run sim ())));
      Alcotest.(check int) "each event fired at its requested time" n (Sim.now sim);
      let left = ref n in
      let rec thunk () =
        if !left > 0 then begin
          decr left;
          Sim.after sim 1 thunk
        end
      in
      Sim.at sim (Sim.now sim) thunk;
      within_budget
        (Printf.sprintf "thunk event, jobs %d" jobs)
        ~words:0
        (words_per ~n (fun () -> ignore (Sim.run sim ())));
      Alcotest.(check int) "every thunk ran" (2 * (n + 1)) (Sim.events_executed sim))
    [ 1; 2 ]

(* A message event carries its handler's word; at arrival the engine
   asks the hook for the handler's finish and queues the continuation
   there.  A chain of messages bouncing between two shards, the hook's
   finish [arrival + msg], each continuation logging its shard, time
   and key: the run must read the same, with the same event count, on
   one heap and windowed as a closure that does the hook's work by hand
   on one heap. *)
let test_message_events () =
  let run ~jobs ~closure =
    let sim = Sim.create () in
    Sim.make_sharded sim ~nshards:2 ~lookahead:100;
    Sim.set_jobs sim jobs;
    Sim.set_deliver sim (fun msg t -> t + msg);
    let log = ref [] and left = ref 300 in
    let rec k t =
      let r = Sim.running () in
      log := [ r.Sim.shard; t; Sim.now sim; r.Sim.fire; r.Sim.sched; r.Sim.srcseq ] :: !log;
      if !left > 0 then begin
        decr left;
        let msg = !left mod 7 and shard = 1 - Sim.cur () in
        let arrive = Sim.now sim + 100 + (!left mod 3) in
        if closure then Sim.at_shard_k sim ~shard arrive (fun a -> Sim.at_k sim (a + msg) k)
        else Sim.at_msg sim ~shard arrive ~msg k
      end
    in
    Sim.at_shard_k sim ~shard:0 0 k;
    ignore (Sim.run sim ());
    (List.rev !log, Sim.events_executed sim)
  in
  let expect = run ~jobs:1 ~closure:true in
  let check what got = Alcotest.(check (pair (list (list int)) int)) what expect got in
  check "one heap" (run ~jobs:1 ~closure:false);
  check "windowed" (run ~jobs:2 ~closure:false);
  Alcotest.(check int) "both shards ran" 2
    (List.length (List.sort_uniq compare (List.map List.hd (fst expect))))

(* On a lossy LAN a message still reaches its handler once: the
   transport keeps the word until it delivers and then calls the hook.
   Each of [n] messages, to three SSMPs and under drops, duplicates,
   delays and reorders, must meet the hook once and run its
   continuation once, at the finish the hook returned; and the run must
   read the same on one heap and windowed. *)
let test_message_faulted_lan () =
  let module Lan = Mgs_net.Lan in
  let module Fault = Mgs_net.Fault in
  let costs = Mgs_machine.Costs.default in
  let n = 120 in
  let run ~jobs =
    let sim = Sim.create () in
    Sim.make_sharded sim ~nshards:4 ~lookahead:costs.Mgs_machine.Costs.lan.latency;
    Sim.set_jobs sim jobs;
    let lan = Lan.create sim costs ~nssmps:4 in
    let spec =
      { Fault.none with Fault.drop = 0.3; dup = 0.3; delay_p = 0.3; delay_max = 1500;
        reorder = 0.2; max_retries = 30 }
    in
    Lan.set_fault_plan lan (Fault.make spec ~seed:5 ~nssmps:4);
    (* each message's cell is written only on its destination's shard *)
    let hooked = Array.make n 0 and finish = Array.make n (-1) and ran = Array.make n [] in
    Sim.set_deliver sim (fun i t ->
        hooked.(i) <- hooked.(i) + 1;
        finish.(i) <- t + (10 * i) + 5;
        finish.(i));
    for i = 0 to n - 1 do
      Lan.post lan ~tag:"T" ~src:0 ~dst:0 ~src_ssmp:0 ~dst_ssmp:(1 + (i mod 3))
        ~words:(8 * (i mod 5)) ~at:0 ~msg:i (fun t -> ran.(i) <- (t, Sim.now sim) :: ran.(i))
    done;
    ignore (Sim.run sim ());
    let st = Lan.stats lan in
    Alcotest.(check bool) "faults fired" true (st.Lan.retransmits > 0 && st.Lan.dup_drops > 0);
    Array.iteri
      (fun i runs ->
        match runs with
        | [ (t, now) ] when hooked.(i) = 1 && t = finish.(i) && now = t -> ()
        | _ ->
          Alcotest.failf "message %d: hooked %d times, ran %d times" i hooked.(i)
            (List.length runs))
      ran;
    Array.to_list finish
  in
  Alcotest.(check (list int)) "windowed" (run ~jobs:1) (run ~jobs:2)

(* A [sleep_until] round trip allocates its effect (2 words), its
   continuation (3) and its resume thunk (4). *)
let test_sleep_words () =
  let sim = Sim.create () in
  let n = 100_000 in
  ignore
    (Fiber.spawn sim ~at:0 ~name:"sleeper" (fun () ->
         for t = 1 to n do
           Fiber.sleep_until sim t
         done));
  within_budget "sleep_until round trip" ~words:9
    (words_per ~n (fun () -> ignore (Sim.run sim ())))

let test_fiber_completes () =
  let sim = Sim.create () in
  let steps = ref [] in
  let fb =
    Fiber.spawn sim ~at:0 ~name:"t" (fun () ->
        steps := `A :: !steps;
        Fiber.sleep_until sim 500;
        steps := `B :: !steps)
  in
  ignore (Sim.run sim ());
  Alcotest.(check bool) "completed" true (Fiber.status fb = Fiber.Completed);
  Alcotest.(check int) "slept to 500" 500 (Sim.now sim);
  Alcotest.(check int) "both steps ran" 2 (List.length !steps)

let test_fiber_deadlock_detected () =
  let sim = Sim.create () in
  let fb = Fiber.spawn sim ~at:0 ~name:"stuck" (fun () -> Fiber.suspend (fun _resume -> ())) in
  ignore (Sim.run sim ());
  Alcotest.(check bool) "still running" true (Fiber.status fb = Fiber.Running);
  Alcotest.check_raises "check_all_completed reports it"
    (Failure "fiber \"stuck\" deadlocked (still blocked)") (fun () ->
      Fiber.check_all_completed [ fb ])

exception Boom

let test_fiber_failure_propagates () =
  let sim = Sim.create () in
  let fb = Fiber.spawn sim ~at:0 ~name:"bad" (fun () -> raise Boom) in
  ignore (Sim.run sim ());
  (match Fiber.status fb with
  | Fiber.Failed Boom -> ()
  | _ -> Alcotest.fail "expected Failed Boom");
  Alcotest.check_raises "re-raised" Boom (fun () -> Fiber.check_all_completed [ fb ])

let test_suspend_outside_fiber () =
  Alcotest.check_raises "suspend outside fiber"
    (Failure "Fiber.suspend: called outside a fiber") (fun () ->
      Fiber.suspend (fun _resume -> ()))

(* A resume thunk resumes its own suspension once.  Called again, here
   after the fiber has gone on to sleep, it raises out of the run
   instead of cutting the later sleep short. *)
let test_resume_twice () =
  let sim = Sim.create () in
  let woke = ref (-1) in
  ignore
    (Fiber.spawn sim ~at:0 ~name:"twice" (fun () ->
         Fiber.suspend (fun resume ->
             Sim.at sim 10 resume;
             Sim.at sim 20 resume);
         Fiber.sleep_until sim 30;
         woke := Sim.now sim));
  Alcotest.check_raises "second resume raises" Effect.Continuation_already_resumed (fun () ->
      ignore (Sim.run sim ()));
  Alcotest.(check int) "the sleep was not cut short" (-1) !woke

let test_sleep_outside_fiber () =
  Alcotest.check_raises "sleep_until outside fiber"
    (Failure "Fiber.suspend: called outside a fiber") (fun () ->
      Fiber.sleep_until (Sim.create ()) 10)

let test_waitq_fifo () =
  let sim = Sim.create () in
  let q = Waitq.create () in
  let order = ref [] in
  let spawn name =
    ignore
      (Fiber.spawn sim ~at:0 ~name (fun () ->
           Waitq.park q;
           order := name :: !order))
  in
  spawn "first";
  spawn "second";
  spawn "third";
  Sim.at sim 10 (fun () -> ignore (Waitq.wake_one sim q));
  Sim.at sim 20 (fun () -> ignore (Waitq.wake_all sim q));
  ignore (Sim.run sim ());
  Alcotest.(check (list string)) "FIFO wake order" [ "first"; "second"; "third" ]
    (List.rev !order)

let test_waitq_counts () =
  let sim = Sim.create () in
  let q = Waitq.create () in
  Alcotest.(check bool) "empty wake_one" false (Waitq.wake_one sim q);
  Waitq.park_thunk q (fun () -> ());
  Waitq.park_thunk q (fun () -> ());
  Alcotest.(check int) "length" 2 (Waitq.length q);
  Alcotest.(check int) "wake_all count" 2 (Waitq.wake_all sim q);
  Alcotest.(check bool) "now empty" true (Waitq.is_empty q)

(* Fibers interleave deterministically with plain events. *)
let test_fiber_event_interleaving () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Fiber.spawn sim ~at:5 ~name:"f" (fun () ->
         log := "f@5" :: !log;
         Fiber.sleep_until sim 15;
         log := "f@15" :: !log));
  Sim.at sim 10 (fun () -> log := "e@10" :: !log);
  ignore (Sim.run sim ());
  Alcotest.(check (list string)) "interleaving" [ "f@5"; "e@10"; "f@15" ] (List.rev !log)

(* Property: the simulator clock never goes backwards, whatever the
   schedule (including events scheduling into the past). *)
let prop_clock_monotone =
  QCheck2.Test.make ~name:"Sim.now is monotone" ~count:200
    QCheck2.Gen.(list (pair (int_bound 1000) (int_bound 500)))
    (fun plan ->
      let sim = Sim.create () in
      let last = ref (-1) in
      let ok = ref true in
      List.iter
        (fun (t, dt) ->
          Sim.at sim t (fun () ->
              if Sim.now sim < !last then ok := false;
              last := Sim.now sim;
              (* events may schedule both forward and "backward" *)
              Sim.at sim (Sim.now sim - dt) (fun () ->
                  if Sim.now sim < !last then ok := false;
                  last := Sim.now sim)))
        plan;
      ignore (Sim.run sim ());
      !ok)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_pqueue_10k; prop_clock_monotone ]

let () =
  Alcotest.run "engine"
    [
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_basic;
          Alcotest.test_case "fifo on ties" `Quick test_pqueue_fifo_ties;
        ] );
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "tie-break fifo" `Quick test_tie_break_fifo;
          Alcotest.test_case "past clamped to now" `Quick test_past_clamped;
          Alcotest.test_case "negative delay rejected" `Quick test_after_negative;
          Alcotest.test_case "event limit" `Quick test_event_limit;
          Alcotest.test_case "clamps counted" `Quick test_clamp_counted;
          Alcotest.test_case "late cross-shard merge clamped" `Quick
            test_sharded_late_merge_clamped;
          Alcotest.test_case "strict mode raises on late merge" `Quick
            test_sharded_strict_raises;
          Alcotest.test_case "lookahead 0 runs on one domain" `Quick test_lookahead_zero;
          Alcotest.test_case "set_jobs refuses pending events" `Quick
            test_set_jobs_refuses_pending;
          Alcotest.test_case "set_jobs keeps an unchanged count" `Quick
            test_set_jobs_unchanged_count;
          Alcotest.test_case "the running record holds the event's key" `Quick
            test_running_stamp;
          Alcotest.test_case "a run event's payload is unreachable" `Quick
            test_ran_payload_unreachable;
          Alcotest.test_case "lookahead 0 runs a key before its creator's" `Quick
            test_zero_lookahead_order;
          Alcotest.test_case "windows allocate nothing" `Quick
            test_windows_allocate_nothing;
          Alcotest.test_case "cross-shard sends allocate nothing" `Quick
            test_cross_sends_allocate_nothing;
          Alcotest.test_case "a timed event allocates nothing" `Quick test_event_words;
          Alcotest.test_case "a message crosses shards as its closure would" `Quick
            test_message_events;
          Alcotest.test_case "a lossy LAN runs each handler once" `Quick
            test_message_faulted_lan;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "runs to completion" `Quick test_fiber_completes;
          Alcotest.test_case "deadlock detected" `Quick test_fiber_deadlock_detected;
          Alcotest.test_case "failure propagates" `Quick test_fiber_failure_propagates;
          Alcotest.test_case "suspend outside fiber" `Quick test_suspend_outside_fiber;
          Alcotest.test_case "interleaves with events" `Quick test_fiber_event_interleaving;
          Alcotest.test_case "a second resume raises" `Quick test_resume_twice;
          Alcotest.test_case "sleep outside fiber" `Quick test_sleep_outside_fiber;
          Alcotest.test_case "a sleep allocates 9 words" `Quick test_sleep_words;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "fifo" `Quick test_waitq_fifo;
          Alcotest.test_case "counts" `Quick test_waitq_counts;
        ] );
      ("properties", qsuite);
    ]
