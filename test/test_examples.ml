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

let cli_refuses args ~says () =
  let code, out = run_exe ~dir:"bin" "mgs_run" args in
  Alcotest.(check int) "exits 2" 2 code;
  if not (contains out says) then Alcotest.failf "output %S lacks %S" out says

let () =
  Alcotest.run "examples"
    [
      ( "run",
        List.map
          (fun n -> Alcotest.test_case n `Slow (fun () -> run_example n))
          [ "quickstart"; "stencil"; "work_queue"; "protocols" ] );
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
        ] );
    ]
