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

(* A line's slot is its number masked, so a slot count that is not a
   power of two is refused; a small power of two still maps lines that
   many apart to one slot. *)
let test_slots_power_of_two () =
  let with_slots n =
    { costs with
      Mgs_machine.Costs.hardware = { hw with Mgs_machine.Costs.cache_line_slots = n } }
  in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "%d slots refused" n)
        (Invalid_argument "Coherence.create: cache_line_slots not a power of two")
        (fun () -> ignore (Co.create (with_slots n) geom ~cluster:2)))
    [ 0; -4; 3; 6; 4095; 4097 ];
  let c = Co.create (with_slots 2) geom ~cluster:2 in
  ignore (rd c ~proc:0 ~addr:0 ~fo:0);
  ignore (rd c ~proc:0 ~addr:8 ~fo:0);
  Alcotest.(check int) "line 2 took line 0's slot" hw.miss_local (rd c ~proc:0 ~addr:0 ~fo:0);
  ignore (rd c ~proc:0 ~addr:4 ~fo:0);
  Alcotest.(check int) "line 1 has the other slot" hw.cache_hit (rd c ~proc:0 ~addr:0 ~fo:0);
  Co.check_invariants c

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

(* A spec-level model of the same protocol, written for clarity, not
   space: each processor's direct-mapped slots as (line, state) pairs
   and, per line, an owner and a list of sharers. *)
module Spec = struct
  type state = I | S | M

  type t = {
    slots : (int * int, int * state) Hashtbl.t; (* (proc, slot) -> line, state *)
    dir : (int, int * int list) Hashtbl.t; (* line -> owner or -1, sharers *)
    st : Co.stats;
  }

  let create () =
    {
      slots = Hashtbl.create 64;
      dir = Hashtbl.create 64;
      st =
        {
          Co.hits = 0;
          local_misses = 0;
          remote_misses = 0;
          misses_2party = 0;
          misses_3party = 0;
          software_extensions = 0;
        };
    }

  let slot_of line = line mod hw.cache_line_slots

  let slot m p line = Option.value (Hashtbl.find_opt m.slots (p, slot_of line)) ~default:(-1, I)

  let dir m line = Option.value (Hashtbl.find_opt m.dir line) ~default:(-1, [])

  (* Another processor loses its copy, or keeps it read-only. *)
  let zap m p line =
    if fst (slot m p line) = line then Hashtbl.replace m.slots (p, slot_of line) (line, I)

  let downgrade m p line =
    if slot m p line = (line, M) then Hashtbl.replace m.slots (p, slot_of line) (line, S)

  (* Table 3's class of a miss: from memory at the frame owner or
     elsewhere, or from other caches, two-party when the one other
     cache is the frame owner's. *)
  type cls = Local | Remote | Two_party | Three_party

  let charge m cls =
    let st = m.st in
    match cls with
    | Local ->
      st.local_misses <- st.local_misses + 1;
      hw.miss_local
    | Remote ->
      st.remote_misses <- st.remote_misses + 1;
      hw.miss_remote
    | Two_party ->
      st.misses_2party <- st.misses_2party + 1;
      hw.miss_2party
    | Three_party ->
      st.misses_3party <- st.misses_3party + 1;
      hw.miss_3party

  let access m ~proc ~line ~fo ~write =
    let tag, state = slot m proc line in
    if tag = line && (state = M || (state = S && not write)) then begin
      m.st.hits <- m.st.hits + 1;
      hw.cache_hit
    end
    else begin
      (* the slot's old line forgets this processor *)
      if state <> I then begin
        let o, sh = dir m tag in
        Hashtbl.replace m.dir tag
          ((if o = proc then -1 else o), List.filter (fun p -> p <> proc) sh)
      end;
      let o, sh = dir m line in
      let overflow = List.length sh > hw.hw_dir_pointers in
      let from_memory = if proc = fo then Local else Remote in
      let cls =
        if o >= 0 && o <> proc then begin
          if write then zap m o line
          else begin
            downgrade m o line;
            Hashtbl.replace m.dir line (-1, o :: sh)
          end;
          if o = fo then Two_party else Three_party
        end
        else if not write then from_memory
        else begin
          let others = List.filter (fun p -> p <> proc) sh in
          List.iter (fun p -> zap m p line) others;
          match others with
          | [] -> from_memory
          | [ x ] -> if x = fo then Two_party else Three_party
          | _ -> Three_party
        end
      in
      let base = charge m cls in
      let o, sh = dir m line in
      if write then begin
        Hashtbl.replace m.dir line (proc, []);
        Hashtbl.replace m.slots (proc, slot_of line) (line, M)
      end
      else begin
        Hashtbl.replace m.dir line (o, if List.mem proc sh then sh else proc :: sh);
        Hashtbl.replace m.slots (proc, slot_of line) (line, S)
      end;
      if overflow then begin
        m.st.software_extensions <- m.st.software_extensions + 1;
        base + hw.remote_software
      end
      else base
    end

  let flush_page m ~vpn =
    let lpp = Geom.lines_per_page geom in
    let present = ref 0 and dirty = ref 0 in
    for line = vpn * lpp to ((vpn + 1) * lpp) - 1 do
      let o, sh = dir m line in
      if o >= 0 || sh <> [] then begin
        incr present;
        if o >= 0 then begin
          incr dirty;
          zap m o line
        end;
        List.iter (fun p -> zap m p line) sh;
        Hashtbl.replace m.dir line (-1, [])
      end
    done;
    (!present, !dirty)
end

(* The packed model against the spec model over random loads, stores
   and page flushes, at cluster sizes on both sides of a 62-processor
   sharer-mask word.  A few hot lines are shared by many processors, so
   directories overflow the hardware pointers; lines one cache size
   apart conflict in a slot; the flushes clean pages in use.  Every
   stall and flush result, the final counters and the model's own
   invariants must agree. *)
type op = Access of int * int * int * bool | Flush of int

let prop_matches_spec cluster =
  let lines = [ 0; 1; 2; 3; 5; 8; 64; 65; 130; 4096; 4097; 4160; 8192 ] in
  let vpns = [ 0; 1; 2; 64; 65; 128 ] in
  QCheck2.Test.make ~count:60
    ~name:(Printf.sprintf "matches the spec model at C=%d" cluster)
    QCheck2.Gen.(
      list_size (int_range 50 600)
        (frequency
           [
             ( 24,
               map
                 (fun (proc, line, fo, write) -> Access (proc, line, fo, write))
                 (quad (int_bound (cluster - 1)) (oneofl lines) (int_bound (cluster - 1))
                    (frequencyl [ (3, false); (1, true) ])) );
             (1, map (fun vpn -> Flush vpn) (oneofl vpns));
           ]))
    (fun ops ->
      let c = make ~cluster () and m = Spec.create () in
      let lw = geom.Geom.line_words in
      List.iteri
        (fun i op ->
          match op with
          | Access (proc, line, fo, write) ->
            let got =
              Co.access c ~proc ~addr:((line * lw) + (i mod lw)) ~frame_owner:fo
                ~kind:(if write then Co.Write else Co.Read)
            in
            let want = Spec.access m ~proc ~line ~fo ~write in
            if got <> want then
              QCheck2.Test.fail_reportf "op %d: proc %d line %d: stall %d, spec %d" i proc line
                got want
          | Flush vpn ->
            let dirty = ref 0 in
            let present = Co.flush_page c ~vpn ~dirty in
            if (present, !dirty) <> Spec.flush_page m ~vpn then
              QCheck2.Test.fail_reportf "op %d: flush of page %d differs" i vpn)
        ops;
      Co.check_invariants c;
      Co.stats c = m.Spec.st)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    ([ prop_no_stale_hits; prop_write_then_foreign_read_misses; prop_invariants_hold ]
    @ List.map prop_matches_spec [ 1; 16; 62; 63; 64; 128 ])

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
          Alcotest.test_case "slot count a power of two" `Quick test_slots_power_of_two;
        ] );
      ("properties", qsuite);
    ]
