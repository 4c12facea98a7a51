(* Protocols: the same program under the three software coherence
   protocols — MGS's eager multiple-writer release consistency, lazy
   home-based release consistency, and an Ivy-style single-writer
   sequentially-consistent baseline.

     dune exec examples/protocols.exe

   The workload is migratory: a shared accumulator bounces between
   SSMPs under a lock. Watch how the protocols pay differently — MGS in
   release epochs, HLRC in (cheap) notice handling, Ivy in page
   ownership transfers. *)

let rounds = 30

let () =
  let run protocol ~cluster =
    let cfg =
      Mgs.Machine.config ~nprocs:8 ~cluster ~lan_latency:1000
        ~protocol:(Mgs.Protocol.proto_of_name protocol) ()
    in
    let m = Mgs.Machine.create cfg in
    let cell = Mgs.Machine.alloc m ~words:4 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let lock = Mgs_sync.Locks.(make m Token) in
    let bar = Mgs_sync.Barrier.create m in
    let report =
      Mgs.Machine.run m (fun ctx ->
          for _ = 1 to rounds do
            Mgs_sync.Locks.acquire ctx lock;
            Mgs.Api.write ctx cell (Mgs.Api.read ctx cell +. 1.0);
            Mgs_sync.Locks.release ctx lock
          done;
          Mgs_sync.Barrier.wait ctx bar)
    in
    assert (Mgs.Machine.peek m cell = float_of_int (8 * rounds));
    (report.Mgs.Report.runtime, report.Mgs.Report.lan_messages)
  in
  (* protocols are picked by name: the same strings mgs_run --protocol
     and Sweep.run_point ~protocol accept *)
  let label = function
    | "mgs" -> "MGS (eager RC)"
    | "hlrc" -> "HLRC (lazy RC)"
    | "ivy" -> "Ivy (SC)"
    | n -> n
  in
  Printf.printf "migratory counter, P = 8, %d lock rounds per processor:\n\n" rounds;
  Printf.printf "%-16s %14s %10s %14s %10s\n" "protocol" "C=2 runtime" "msgs" "C=8 runtime" "msgs";
  List.iter
    (fun p ->
      let t2, m2 = run p ~cluster:2 in
      let t8, m8 = run p ~cluster:8 in
      Printf.printf "%-16s %14d %10d %14d %10d\n" (label p) t2 m2 t8 m8)
    (Mgs.Protocol.names ());
  print_newline ();
  print_endline
    "All three produce identical results; they differ in where the coherence work goes."
