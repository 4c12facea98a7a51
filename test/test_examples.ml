(* The examples must build and run cleanly: they are the public face of
   the API.  Each is executed as a subprocess; exit code 0 and non-empty
   output are required.  The mgs_run CLI runs the same way, to check
   that it refuses a bad knob or configuration with exit code 2 and a
   message saying why. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Run [dir/name.exe args], returning its exit code and combined output. *)
let run_exe ~dir name args =
  (* dune runtest runs in _build/default/test; dune exec from the root *)
  let candidates =
    [
      Filename.concat ("../" ^ dir) (name ^ ".exe");
      Filename.concat ("_build/default/" ^ dir) (name ^ ".exe");
      Filename.concat dir (name ^ ".exe");
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "binary %s not found" name
  in
  let tmp = Filename.temp_file "mgs_example" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote path)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote tmp)
  in
  let code = Sys.command cmd in
  let out = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  (code, out)

let run_example name =
  let code, out = run_exe ~dir:"examples" name [] in
  Alcotest.(check int) (name ^ " exits 0") 0 code;
  Alcotest.(check bool) (name ^ " produces output") true (String.length out > 0)

(* A sweep of 12 processors runs the cluster sizes 12 accepts that are
   powers of two, 1, 2 and 4, and verifies. *)
let test_sweep_12 () =
  let code, out =
    run_exe ~dir:"bin" "mgs_run"
      [ "--app"; "jacobi"; "--procs"; "12"; "--size"; "32"; "--iters"; "1"; "--sweep" ]
  in
  Alcotest.(check int) "exits 0" 0 code;
  List.iter
    (fun s -> if not (contains out s) then Alcotest.failf "output %S lacks %S" out s)
    [ "C=1 |"; "C=2 |"; "C=4 |"; "verification: OK" ];
  if contains out "C=8" then Alcotest.failf "output %S runs C=8" out

(* A refusal comes before the banner: nothing of a run is printed. *)
let cli_refuses args ~says () =
  let code, out = run_exe ~dir:"bin" "mgs_run" args in
  Alcotest.(check int) "exits 2" 2 code;
  if not (contains out says) then Alcotest.failf "output %S lacks %S" out says;
  if contains out "app=" then Alcotest.failf "output %S printed the banner" out

let () =
  Alcotest.run "examples"
    [
      ( "run",
        List.map
          (fun n -> Alcotest.test_case n `Slow (fun () -> run_example n))
          [ "quickstart"; "stencil"; "work_queue"; "protocols" ] );
      ( "cli runs",
        [
          Alcotest.test_case "sweep of 12 processors" `Quick test_sweep_12;
        ] );
      ( "cli refusals",
        [
          Alcotest.test_case "unknown param" `Quick
            (cli_refuses
               [ "--app"; "jacobi"; "--param"; "bogus=1" ]
               ~says:
                 "mgs_run: workload jacobi: unknown parameter \"bogus\" (accepted: size, iters)");
          Alcotest.test_case "adapt under ivy" `Quick
            (cli_refuses
               [ "--app"; "water"; "--adapt"; "--protocol"; "ivy" ]
               ~says:"mgs_run: Machine.config: protocol \"ivy\" supports no adaptive");
          Alcotest.test_case "par 0" `Quick
            (cli_refuses [ "--app"; "jacobi"; "--par"; "0" ]
               ~says:"mgs_run: Machine.config: par_jobs < 1");
          Alcotest.test_case "cluster does not divide procs" `Quick
            (cli_refuses
               [ "--app"; "jacobi"; "--procs"; "8"; "--cluster"; "3" ]
               ~says:"mgs_run: Topology.create: cluster must divide nprocs");
          Alcotest.test_case "procs 0" `Quick
            (cli_refuses [ "--app"; "jacobi"; "--procs"; "0" ]
               ~says:"mgs_run: Topology.create: nprocs must be at least 1, got 0");
          Alcotest.test_case "cluster 0" `Quick
            (cli_refuses
               [ "--app"; "jacobi"; "--procs"; "8"; "--cluster"; "0" ]
               ~says:"mgs_run: Topology.create: cluster must be in 1..8, got 0");
          Alcotest.test_case "cluster above procs" `Quick
            (cli_refuses
               [ "--app"; "jacobi"; "--procs"; "8"; "--cluster"; "16" ]
               ~says:"mgs_run: Topology.create: cluster must be in 1..8, got 16");
          Alcotest.test_case "page not a power of two" `Quick
            (cli_refuses
               [ "--app"; "jacobi"; "--page-bytes"; "100" ]
               ~says:"mgs_run: Geom.create: page_words not a power of two");
          Alcotest.test_case "negative delay" `Quick
            (cli_refuses [ "--app"; "jacobi"; "--delay=-5" ]
               ~says:"mgs_run: Machine.config: lan_latency < 0");
          Alcotest.test_case "kv home" `Quick
            (cli_refuses
               [ "--app"; "kv"; "--param"; "home=bogus" ]
               ~says:"mgs_run: kv: home must be \"spread\" or \"packed\"");
          Alcotest.test_case "kv mix" `Quick
            (cli_refuses
               [ "--app"; "kv"; "--param"; "get=90"; "--param"; "put=20" ]
               ~says:
                 "mgs_run: kv: get/put percentages must be nonnegative and sum to at most \
                  100");
          Alcotest.test_case "kv negative think" `Quick
            (cli_refuses
               [ "--app"; "kv"; "--param"; "think=-5" ]
               ~says:"mgs_run: kv: think must be nonnegative");
          Alcotest.test_case "kv negative shards" `Quick
            (cli_refuses
               [ "--app"; "kv"; "--param"; "shards=-1" ]
               ~says:"mgs_run: kv: shards must be nonnegative");
          Alcotest.test_case "negative size" `Quick
            (cli_refuses [ "--app"; "jacobi"; "--size=-3" ]
               ~says:"mgs_run: workload jacobi: size must be at least 1, got -3");
          Alcotest.test_case "size 0" `Quick
            (cli_refuses [ "--app"; "water"; "--size"; "0" ]
               ~says:"mgs_run: workload water: size must be at least 1, got 0");
          Alcotest.test_case "negative iters" `Quick
            (cli_refuses [ "--app"; "jacobi"; "--iters=-1" ]
               ~says:"mgs_run: workload jacobi: iters must be at least 0, got -1");
        ] );
    ]
