(* Tests for the discrete-event core: the event heap, event ordering,
   clamping, fibers, and wait queues. *)

module Sim = Mgs_engine.Sim
module Fiber = Mgs_engine.Fiber
module Waitq = Mgs_engine.Waitq
module Q = Mgs_engine.Shardq

(* --- the event heap ---------------------------------------------------- *)

let push q ~fire ~seq f =
  Q.push q ~key:(Q.key ~fire ~sched:0 ~src:0 ~seq ~parent:Q.no_parent) ~own:0 f

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

(* pop order matches a sorted reference over 10k random (fire, seq)
   pushes from one shard *)
let prop_pqueue_10k =
  QCheck2.Test.make ~name:"10k random (prio, seq) pushes pop sorted" ~count:10
    QCheck2.Gen.(list_size (return 10_000) (pair (int_bound 500) (int_bound 1_000_000)))
    (fun pairs ->
      let q = Q.create () in
      List.iter (fun (fire, seq) -> push q ~fire ~seq ignore) pairs;
      let rec drain acc =
        if Q.is_empty q then List.rev acc
        else begin
          Q.pop_min q ();
          let k = Q.popped_key q in
          drain ((k.Q.k_fire, k.Q.k_seq) :: acc)
        end
      in
      drain [] = List.sort compare pairs)

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

(* One job ranks each key as it pops it, so the key of a running event
   reaches a self-referential sentinel in one hop however long the
   fiber's history is; unranked, each sleep would add a hop. *)
let test_chains_bounded () =
  let sim = Sim.create () in
  let rec hops k n = if k.Q.k_parent == k then n else hops k.Q.k_parent (n + 1) in
  let deepest = ref 0 in
  ignore
    (Fiber.spawn sim ~at:0 ~name:"sleeper" (fun () ->
         let walk () = deepest := max !deepest (hops (Sim.running_key ()) 0) in
         for t = 1 to 100_000 do
           walk ();
           Fiber.sleep_until sim t
         done;
         walk ()));
  ignore (Sim.run sim ());
  Alcotest.(check int) "longest walk to a sentinel" 1 !deepest

(* Keys executed windowed stay unranked, and a rank given after them
   would sort first on a (fire, sched) tie, so a simulator that has run
   windowed ranks nothing more: a root run at one job keeps its
   [no_parent] link. *)
let test_no_ranks_after_windowed () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:100;
  let root_parent () = (Sim.running_key ()).Q.k_parent == Q.no_parent in
  let ranked_at jobs =
    Sim.set_jobs sim jobs;
    let unranked = ref false in
    Sim.at_shard sim ~shard:1 (Sim.now sim) (fun () -> unranked := root_parent ());
    ignore (Sim.run sim ());
    not !unranked
  in
  Alcotest.(check (list bool)) "ranked at one job, then never" [ true; false; false ]
    (List.map ranked_at [ 1; 2; 1 ])

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

(* A cross-shard send inside a window allocates nothing beyond its
   event.  The same events run twice, once with every send local and
   once with every send crossing to the other shard; on the calling
   domain, which runs shard 0's sends, both runs allocate alike. *)
let test_cross_sends_allocate_nothing () =
  let sends = 20_000 in
  let run ~cross =
    let sim = Sim.create () in
    Sim.make_sharded sim ~nshards:2 ~lookahead:100;
    Sim.set_jobs sim 2;
    let rec tick n () =
      if n > 0 then begin
        let dst = if cross then 1 - Sim.cur () else Sim.cur () in
        Sim.at_shard sim ~shard:dst (Sim.now sim + 100) (tick (n - 1))
      end
    in
    for shard = 0 to 1 do
      Sim.at_shard sim ~shard 0 (tick sends)
    done;
    let w0 = Gc.minor_words () in
    ignore (Sim.run sim ());
    (Gc.minor_words () -. w0, Sim.windows sim)
  in
  let words_local, wl = run ~cross:false in
  let words_cross, wc = run ~cross:true in
  Alcotest.(check (pair int int)) "windows opened" (sends + 1, sends + 1) (wl, wc);
  let per_send = (words_cross -. words_local) /. float_of_int sends in
  if Float.abs per_send >= 0.5 then
    Alcotest.failf "%.2f words allocated per cross-shard send" per_send

(* Minor-heap words per operation when [run] performs [n] of them;
   setup inside [run] must cost under half a word per operation. *)
let words_per ~n run =
  let w0 = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. w0) /. float_of_int n

let within_budget what ~words per =
  if per >= float_of_int words +. 0.5 then
    Alcotest.failf "%s: %.2f words, budget %d" what per words

(* A timed event allocates only its key: a callback that reschedules
   itself with the fire time it receives builds no closure. *)
let test_timed_event_words () =
  let sim = Sim.create () in
  let n = 100_000 in
  let left = ref n in
  let rec tick t =
    if !left > 0 then begin
      decr left;
      Sim.at_k sim (t + 1) tick
    end
  in
  Sim.at_k sim 0 tick;
  within_budget "timed event" ~words:8 (words_per ~n (fun () -> ignore (Sim.run sim ())));
  Alcotest.(check int) "each event fired at its requested time" n (Sim.now sim)

(* A [sleep_until] round trip allocates its effect, its continuation,
   its resume thunk and the resume event's key. *)
let test_sleep_words () =
  let sim = Sim.create () in
  let n = 100_000 in
  ignore
    (Fiber.spawn sim ~at:0 ~name:"sleeper" (fun () ->
         for t = 1 to n do
           Fiber.sleep_until sim t
         done));
  within_budget "sleep_until round trip" ~words:17
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
          Alcotest.test_case "key chains stay bounded" `Quick test_chains_bounded;
          Alcotest.test_case "no ranks after a windowed run" `Quick
            test_no_ranks_after_windowed;
          Alcotest.test_case "windows allocate nothing" `Quick
            test_windows_allocate_nothing;
          Alcotest.test_case "cross-shard sends allocate only their key" `Quick
            test_cross_sends_allocate_nothing;
          Alcotest.test_case "a timed event allocates only its key" `Quick
            test_timed_event_words;
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
          Alcotest.test_case "a sleep allocates 17 words" `Quick test_sleep_words;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "fifo" `Quick test_waitq_fifo;
          Alcotest.test_case "counts" `Quick test_waitq_counts;
        ] );
      ("properties", qsuite);
    ]
