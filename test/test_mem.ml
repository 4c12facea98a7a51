(* Tests for the memory substrate: geometry arithmetic, the Munin
   twin/diff/merge machinery, and the allocator's home policies. *)

module Geom = Mgs_mem.Geom
module Pd = Mgs_mem.Pagedata
module Alloc = Mgs_mem.Allocator

let geom = Geom.create ()

let small = Geom.create ~page_words:16 ()

(* --- geometry ------------------------------------------------------- *)

let test_geom_defaults () =
  Alcotest.(check int) "page bytes" 1024 (Geom.page_bytes geom);
  Alcotest.(check int) "lines per page" 64 (Geom.lines_per_page geom);
  Alcotest.(check int) "word size" 4 Geom.bytes_per_word

let test_geom_arithmetic () =
  Alcotest.(check int) "vpn" 2 (Geom.vpn_of_addr small 35);
  Alcotest.(check int) "offset" 3 (Geom.offset_of_addr small 35);
  Alcotest.(check int) "addr of vpn" 32 (Geom.addr_of_vpn small 2);
  Alcotest.(check int) "line" 8 (Geom.line_of_addr small 35);
  Alcotest.(check int) "line in page" 0 (Geom.line_offset_in_page small 35)

let test_geom_validation () =
  Alcotest.check_raises "page not power of two"
    (Invalid_argument "Geom.create: page_words not a power of two") (fun () ->
      ignore (Geom.create ~page_words:100 ()));
  Alcotest.check_raises "line larger than page"
    (Invalid_argument "Geom.create: line larger than page") (fun () ->
      ignore (Geom.create ~page_words:2 ()))

let prop_geom_roundtrip =
  QCheck2.Test.make ~name:"vpn*page + offset = addr" ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun addr ->
      Geom.addr_of_vpn geom (Geom.vpn_of_addr geom addr) + Geom.offset_of_addr geom addr
      = addr)

(* --- pagedata: twin / diff / merge ----------------------------------- *)

let random_page rng = Array.init small.Geom.page_words (fun _ -> Mgs_util.Rng.float rng 10.)

(* the store path marks every write on the twin's dirty bitmap *)
let store twin p i v =
  p.(i) <- v;
  Pd.mark twin i

let diff_list d =
  let acc = ref [] in
  Pd.iter_diff (fun i v -> acc := (i, v) :: !acc) d;
  List.rev !acc

(* floats compared bitwise so NaN payloads and -0.0 round-trip *)
let bits_testable =
  Alcotest.testable
    (fun ppf v -> Format.fprintf ppf "%h" v)
    (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)

(* generator covering the awkward payloads: NaN, -0.0, infinities *)
let gen_word =
  QCheck2.Gen.(
    frequency
      [
        (6, float_bound_exclusive 100.);
        (1, return nan);
        (1, return (-0.0));
        (1, return 0.0);
        (1, return infinity);
        (1, return neg_infinity);
        (1, return (Int64.float_of_bits 0x7ff0000000deadL));
        (* a non-default NaN payload *)
      ])

let test_diff_empty () =
  let p = Pd.create small in
  let twin = Pd.twin_of p in
  Alcotest.(check int) "no changes, empty diff" 0 (Pd.diff_size (Pd.diff p ~twin))

let test_diff_captures_changes () =
  let rng = Mgs_util.Rng.create ~seed:3 in
  let p = random_page rng in
  let twin = Pd.twin_of p in
  store twin p 2 42.0;
  store twin p 9 (-1.0);
  let d = Pd.diff p ~twin in
  Alcotest.(check int) "two words changed" 2 (Pd.diff_size d);
  Alcotest.(check int) "two runs" 2 (Pd.diff_runs d);
  Alcotest.(check (list (pair int (float 0.))))
    "diff contents" [ (2, 42.0); (9, -1.0) ] (diff_list d)

let test_diff_coalesces_runs () =
  let p = Pd.create small in
  let twin = Pd.twin_of p in
  List.iter (fun i -> store twin p i (float_of_int i)) [ 3; 4; 5; 9; 12; 13 ];
  let d = Pd.diff p ~twin in
  Alcotest.(check int) "six words" 6 (Pd.diff_size d);
  Alcotest.(check int) "three runs" 3 (Pd.diff_runs d)

let test_diff_ignores_clean_stores () =
  (* writing the same value back marks the word dirty but the bitwise
     comparison filters it out of the diff *)
  let rng = Mgs_util.Rng.create ~seed:5 in
  let p = random_page rng in
  let twin = Pd.twin_of p in
  store twin p 4 p.(4);
  store twin p 7 1234.5;
  let d = Pd.diff p ~twin in
  Alcotest.(check int) "dirty words" 2 (Pd.dirty_words twin);
  Alcotest.(check (list (pair int (float 0.)))) "only real change" [ (7, 1234.5) ]
    (diff_list d)

let test_retwin_clears () =
  let p = Pd.create small in
  let twin = Pd.twin_of p in
  store twin p 1 3.5;
  Alcotest.(check int) "one change" 1 (Pd.diff_size (Pd.diff p ~twin));
  Pd.retwin twin ~from:p;
  Alcotest.(check int) "bitmap cleared" 0 (Pd.dirty_words twin);
  Alcotest.(check int) "resynced, empty diff" 0 (Pd.diff_size (Pd.diff p ~twin));
  p.(1) <- 4.5;
  Pd.mark twin 1;
  Alcotest.(check (list (pair int (float 0.)))) "new delta against new base" [ (1, 4.5) ]
    (diff_list (Pd.diff p ~twin))

let test_diff_comparison_count () =
  (* the dirty bitmap means a diff of k touched words compares at most
     2k words (two sizing/filling passes), never the whole page *)
  let p = Pd.create geom in
  let twin = Pd.twin_of p in
  List.iter (fun i -> store twin p i 1.0) [ 3; 40; 200 ];
  Pd.count_comparisons := true;
  Pd.reset_comparisons ();
  let d = Pd.diff p ~twin in
  let dirty_cmps = Pd.comparisons () in
  Pd.reset_comparisons ();
  let d_full = Pd.diff_full p ~against:(Pd.twin_page twin) in
  let full_cmps = Pd.comparisons () in
  Pd.count_comparisons := false;
  Alcotest.(check int) "diff size" 3 (Pd.diff_size d);
  Alcotest.(check bool) "at most 2k comparisons" true (dirty_cmps <= 2 * 3);
  Alcotest.(check bool)
    (Printf.sprintf "far below page scan (%d < %d)" dirty_cmps full_cmps)
    true
    (dirty_cmps < full_cmps);
  Alcotest.(check int) "full scan touches every word twice" 512 full_cmps;
  Alcotest.(check (list (pair int (float 0.)))) "same deltas either way" (diff_list d_full)
    (diff_list d)

let test_diff_allocates_its_result () =
  (* a 3-word, one-run diff allocates its record and two arrays (10
     words) and nothing else: the candidate loops keep their counters
     local *)
  let p = Pd.create geom in
  let twin = Pd.twin_of p in
  List.iter (fun i -> store twin p i 1.0) [ 40; 41; 42 ];
  let d = Pd.diff p ~twin in
  Alcotest.(check int) "one run" 1 (Pd.diff_runs d);
  let result = Obj.reachable_words (Obj.repr d) in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Pd.diff p ~twin))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per diff, result %d" per result)
    true
    (per < float_of_int (result + 1))

let prop_diff_merge_roundtrip =
  QCheck2.Test.make ~name:"apply_diff base (diff p twin) = p (incl. NaN, -0.0)" ~count:300
    QCheck2.Gen.(pair int (list (pair (int_bound 15) gen_word)))
    (fun (seed, writes) ->
      let rng = Mgs_util.Rng.create ~seed in
      let p = random_page rng in
      let twin = Pd.twin_of p in
      let base = Pd.copy p in
      List.iter (fun (i, v) -> store twin p i v) writes;
      let d = Pd.diff p ~twin in
      Pd.apply_diff base d;
      Pd.equal p base)

let prop_diff_matches_full_scan =
  QCheck2.Test.make ~name:"dirty-bitmap diff = full-scan diff when stores mark" ~count:300
    QCheck2.Gen.(pair int (list (pair (int_bound 15) gen_word)))
    (fun (seed, writes) ->
      let rng = Mgs_util.Rng.create ~seed in
      let p = random_page rng in
      let twin = Pd.twin_of p in
      List.iter (fun (i, v) -> store twin p i v) writes;
      let d = Pd.diff p ~twin in
      let d_full = Pd.diff_full p ~against:(Pd.twin_page twin) in
      List.for_all2
        (fun (i, a) (j, b) -> i = j && Int64.bits_of_float a = Int64.bits_of_float b)
        (diff_list d) (diff_list d_full))

let prop_disjoint_writers_merge =
  QCheck2.Test.make ~name:"disjoint writers' diffs merge commutatively" ~count:300
    QCheck2.Gen.(pair int (list (pair (int_bound 15) (float_bound_exclusive 9.))))
    (fun (seed, writes) ->
      let rng = Mgs_util.Rng.create ~seed in
      let master = random_page rng in
      (* writer A takes even offsets, writer B odd ones *)
      let a = Pd.copy master and b = Pd.copy master in
      let ta = Pd.twin_of a and tb = Pd.twin_of b in
      List.iter
        (fun (i, v) ->
          if i mod 2 = 0 then store ta a i (v +. 100.) else store tb b i (v +. 200.))
        writes;
      let da = Pd.diff a ~twin:ta and db = Pd.diff b ~twin:tb in
      let m1 = Pd.copy master and m2 = Pd.copy master in
      Pd.apply_diff m1 da;
      Pd.apply_diff m1 db;
      Pd.apply_diff m2 db;
      Pd.apply_diff m2 da;
      Pd.equal m1 m2)

let test_diff_bitwise () =
  (* -0.0 and 0.0 differ bitwise and must be propagated; NaN payloads
     survive the floatarray round trip *)
  let p = Pd.create small in
  let twin = Pd.twin_of p in
  store twin p 0 (-0.0);
  let payload = Int64.float_of_bits 0x7ff00000cafe01L in
  store twin p 5 payload;
  let d = Pd.diff p ~twin in
  Alcotest.(check int) "both detected" 2 (Pd.diff_size d);
  match diff_list d with
  | [ (0, z); (5, n) ] ->
    Alcotest.check bits_testable "negative zero kept" (-0.0) z;
    Alcotest.check bits_testable "NaN payload kept" payload n
  | l -> Alcotest.failf "unexpected diff shape (%d entries)" (List.length l)

let test_blit_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Pagedata.blit: length mismatch")
    (fun () -> Pd.blit ~src:(Pd.create small) ~dst:(Pd.create geom))

(* --- allocator -------------------------------------------------------- *)

let test_alloc_rounds_to_pages () =
  let h = Alloc.create small ~nprocs:4 in
  let a, _ = Alloc.alloc h ~words:5 ~home:(Alloc.On_proc 1) in
  let b, _ = Alloc.alloc h ~words:17 ~home:(Alloc.On_proc 2) in
  Alcotest.(check int) "first at 0" 0 a;
  Alcotest.(check int) "second page-aligned" 16 b;
  Alcotest.(check int) "pages" 3 (Alloc.pages_allocated h);
  Alcotest.(check int) "words incl. rounding" 48 (Alloc.words_allocated h)

let test_alloc_on_proc () =
  let h = Alloc.create small ~nprocs:4 in
  let _, homes = Alloc.alloc h ~words:32 ~home:(Alloc.On_proc 3) in
  Alcotest.(check int) "home vpn 0" 3 homes.(0);
  Alcotest.(check int) "home vpn 1" 3 homes.(1)

let test_alloc_interleaved () =
  let h = Alloc.create small ~nprocs:3 in
  let _, homes = Alloc.alloc h ~words:(16 * 5) ~home:Alloc.Interleaved in
  Alcotest.(check (list int)) "round robin homes" [ 0; 1; 2; 0; 1 ] (Array.to_list homes)

let test_alloc_blocked () =
  let h = Alloc.create small ~nprocs:2 in
  let _, homes = Alloc.alloc h ~words:(16 * 4) ~home:Alloc.Blocked in
  Alcotest.(check (list int)) "block homes" [ 0; 0; 1; 1 ] (Array.to_list homes)

let test_alloc_errors () =
  let h = Alloc.create small ~nprocs:2 in
  Alcotest.check_raises "zero words" (Invalid_argument "Allocator.alloc: words") (fun () ->
      ignore (Alloc.alloc h ~words:0 ~home:Alloc.Interleaved));
  Alcotest.check_raises "bad proc"
    (Invalid_argument "Allocator.alloc: processor out of range") (fun () ->
      ignore (Alloc.alloc h ~words:1 ~home:(Alloc.On_proc 2)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_geom_roundtrip;
      prop_diff_merge_roundtrip;
      prop_diff_matches_full_scan;
      prop_disjoint_writers_merge;
    ]

let () =
  Alcotest.run "mem"
    [
      ( "geom",
        [
          Alcotest.test_case "defaults" `Quick test_geom_defaults;
          Alcotest.test_case "arithmetic" `Quick test_geom_arithmetic;
          Alcotest.test_case "validation" `Quick test_geom_validation;
        ] );
      ( "pagedata",
        [
          Alcotest.test_case "empty diff" `Quick test_diff_empty;
          Alcotest.test_case "diff captures changes" `Quick test_diff_captures_changes;
          Alcotest.test_case "runs coalesce" `Quick test_diff_coalesces_runs;
          Alcotest.test_case "clean stores filtered" `Quick test_diff_ignores_clean_stores;
          Alcotest.test_case "retwin resyncs" `Quick test_retwin_clears;
          Alcotest.test_case "dirty bitmap limits comparisons" `Quick
            test_diff_comparison_count;
          Alcotest.test_case "bitwise comparison" `Quick test_diff_bitwise;
          Alcotest.test_case "a diff allocates only its result" `Quick
            test_diff_allocates_its_result;
          Alcotest.test_case "blit length check" `Quick test_blit_mismatch;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "page rounding" `Quick test_alloc_rounds_to_pages;
          Alcotest.test_case "on-proc homes" `Quick test_alloc_on_proc;
          Alcotest.test_case "interleaved homes" `Quick test_alloc_interleaved;
          Alcotest.test_case "blocked homes" `Quick test_alloc_blocked;
          Alcotest.test_case "errors" `Quick test_alloc_errors;
        ] );
      ("properties", qsuite);
    ]
