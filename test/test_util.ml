(* Unit and property tests for mgs_util: domain pool, bitsets, RNG,
   and table rendering. *)

module Bs = Mgs_util.Bitset
module Rng = Mgs_util.Rng
module Tp = Mgs_util.Tableprint

(* --- domain pool ------------------------------------------------------ *)

module Dp = Mgs_util.Dpool

let test_dpool_matches_map () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs=4 = List.map" (List.map f xs) (Dp.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 = List.map" (List.map f xs) (Dp.map ~jobs:1 f xs);
  Alcotest.(check (list int))
    "more jobs than work"
    (List.map f [ 1; 2 ])
    (Dp.map ~jobs:8 f [ 1; 2 ]);
  Alcotest.(check (list int)) "empty input" [] (Dp.map ~jobs:4 f []);
  Alcotest.(check bool) "default_jobs positive" true (Dp.default_jobs () >= 1)

let test_dpool_exception () =
  Alcotest.check_raises "lowest failing index re-raised" (Failure "boom 3") (fun () ->
      ignore
        (Dp.map ~jobs:4
           (fun i -> if i >= 3 then failwith (Printf.sprintf "boom %d" i) else i)
           (List.init 10 (fun i -> i))))

(* --- bitsets --------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bs.create 10 in
  Bs.add s 3;
  Bs.add s 7;
  Bs.add s 3;
  Alcotest.(check int) "cardinal dedups" 2 (Bs.cardinal s);
  Alcotest.(check bool) "mem 3" true (Bs.mem s 3);
  Alcotest.(check bool) "not mem 4" false (Bs.mem s 4);
  Bs.remove s 3;
  Alcotest.(check (list int)) "elements" [ 7 ] (Bs.elements s);
  Bs.remove s 3;
  Alcotest.(check int) "double remove" 1 (Bs.cardinal s);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: out of range") (fun () ->
      Bs.add s 10)

let test_bitset_union_copy () =
  let a = Bs.create 8 and b = Bs.create 8 in
  List.iter (Bs.add a) [ 0; 2; 4 ];
  List.iter (Bs.add b) [ 2; 3 ];
  let c = Bs.copy a in
  Bs.union_into c b;
  Alcotest.(check (list int)) "union" [ 0; 2; 3; 4 ] (Bs.elements c);
  Alcotest.(check (list int)) "copy is independent" [ 0; 2; 4 ] (Bs.elements a);
  Alcotest.(check (option int)) "choose least" (Some 0) (Bs.choose c);
  Bs.clear c;
  Alcotest.(check bool) "clear empties" true (Bs.is_empty c);
  Alcotest.(check (option int)) "choose empty" None (Bs.choose c)

module IntSet = Set.Make (Int)

let prop_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with Set on random ops" ~count:300
    QCheck2.Gen.(list (pair bool (int_bound 31)))
    (fun ops ->
      let s = Bs.create 32 in
      let model =
        List.fold_left
          (fun model (add, i) ->
            if add then begin
              Bs.add s i;
              IntSet.add i model
            end
            else begin
              Bs.remove s i;
              IntSet.remove i model
            end)
          IntSet.empty ops
      in
      let next i =
        match IntSet.find_first_opt (fun x -> x >= i) model with Some x -> x | None -> -1
      in
      Bs.elements s = IntSet.elements model
      && Bs.cardinal s = IntSet.cardinal model
      && List.for_all (fun i -> Bs.next s i = next i) (List.init 34 (fun i -> i - 1)))

(* --- rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let prop_rng_int_range =
  QCheck2.Test.make ~name:"Rng.int stays in [0, n)" ~count:500
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let g = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int g n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let prop_rng_float_range =
  QCheck2.Test.make ~name:"Rng.float stays in [0, x)" ~count:200 QCheck2.Gen.int (fun seed ->
      let g = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.float g 3.5 in
        if v < 0.0 || v >= 3.5 then ok := false
      done;
      !ok)

let test_rng_shuffle_permutation () =
  let g = Rng.create ~seed:5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split () =
  let g = Rng.create ~seed:1 in
  let g1 = Rng.split g in
  let g2 = Rng.split g in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 g1 <> Rng.bits64 g2)

let test_rng_split_key () =
  (* split_key must not advance the parent... *)
  let g = Rng.create ~seed:9 in
  let c0 = Rng.split_key g ~key:0 in
  let c1 = Rng.split_key g ~key:1 in
  let c0' = Rng.split_key g ~key:0 in
  Alcotest.(check bool) "same key reproduces the child" true (Rng.bits64 c0 = Rng.bits64 c0');
  (* ...and distinct keys must give statistically independent streams:
     over 64 x 1024 bits, two children agree bit-for-bit about half the
     time.  10% tolerance is ~26 sigma, so this never flakes. *)
  let a = Rng.split_key g ~key:1 and b = Rng.split_key g ~key:2 in
  Alcotest.(check bool) "children differ" true (Rng.bits64 c1 <> Rng.bits64 (Rng.split_key g ~key:2));
  let agree = ref 0 in
  let total = 64 * 1024 in
  for _ = 1 to 1024 do
    let x = Int64.logxor (Rng.bits64 a) (Rng.bits64 b) in
    (* popcount of the agreement mask *)
    let rec pop acc v = if v = 0L then acc else pop (acc + 1) Int64.(logand v (sub v 1L)) in
    agree := !agree + (64 - pop 0 x)
  done;
  let frac = float_of_int !agree /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "bit agreement %.3f near 0.5" frac)
    true
    (frac > 0.45 && frac < 0.55)

(* --- table printing ---------------------------------------------------- *)

let test_render_alignment () =
  let out = Tp.render ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "y" ]; [ "z" ] ] in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check int) "rule width matches header" (String.length header)
      (String.length rule)
  | _ -> Alcotest.fail "expected at least two lines");
  Alcotest.(check bool) "ragged row padded" true (String.length out > 0)

let test_fmt_cycles () =
  Alcotest.(check string) "plain" "321" (Tp.fmt_cycles 321.);
  Alcotest.(check string) "kilo" "4.56K" (Tp.fmt_cycles 4560.);
  Alcotest.(check string) "mega" "12.30M" (Tp.fmt_cycles 12.3e6);
  Alcotest.(check string) "giga" "2.50G" (Tp.fmt_cycles 2.5e9)

let test_stacked_bars () =
  let out =
    Tp.stacked_bars ~title:"t" ~labels:[ "a"; "b" ] ~series_names:[ "u"; "v" ]
      ~values:[| [| 1.0; 2.0 |]; [| 3.0; 1.0 |] |]
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains legend" true (contains out "legend:");
  Alcotest.(check bool) "one line per label + legend" true
    (List.length (String.split_on_char '\n' out) >= 4)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_bitset_model; prop_rng_int_range; prop_rng_float_range ]

let () =
  Alcotest.run "util"
    [
      ( "dpool",
        [
          Alcotest.test_case "matches List.map" `Quick test_dpool_matches_map;
          Alcotest.test_case "exception propagation" `Quick test_dpool_exception;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "union/copy/choose" `Quick test_bitset_union_copy;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "split_key" `Quick test_rng_split_key;
        ] );
      ( "tableprint",
        [
          Alcotest.test_case "alignment" `Quick test_render_alignment;
          Alcotest.test_case "fmt_cycles" `Quick test_fmt_cycles;
          Alcotest.test_case "stacked bars" `Quick test_stacked_bars;
        ] );
      ("properties", qsuite);
    ]
