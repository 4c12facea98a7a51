(* Work queue: a dynamic load-balancing pattern over MGS shared memory.

     dune exec examples/work_queue.exe

   A shared bag of independent tasks (numeric integration slices) is
   drained by all processors through the token-based distributed lock.
   With small clusters the queue lock bounces across the LAN on nearly
   every pop — the paper's TSP pathology; with larger clusters the
   token stays put and the hit ratio climbs. *)

let tasks = 256

let slices = 200 (* work per task, modelled cycles each *)

let () =
  let run ~cluster =
    let cfg = Mgs.Machine.config ~nprocs:16 ~cluster ~lan_latency:1000 () in
    let m = Mgs.Machine.create cfg in
    (* [0] = next task index; [1] = accumulated integral *)
    let ctl = Mgs.Machine.alloc m ~words:2 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let qlock = Mgs_sync.Locks.(make m Token) in
    let bar = Mgs_sync.Barrier.create m in
    let report =
      Mgs.Machine.run m (fun ctx ->
          let running = ref true in
          let local = ref 0.0 in
          while !running do
            Mgs_sync.Locks.acquire ctx qlock;
            let t = Mgs.Api.read_int ctx ctl in
            if t < tasks then Mgs.Api.write_int ctx ctl (t + 1);
            Mgs_sync.Locks.release ctx qlock;
            if t >= tasks then running := false
            else begin
              (* integrate 1/(1+x^2) over the slice: builds toward pi *)
              let x0 = float_of_int t /. float_of_int tasks in
              let h = 1.0 /. float_of_int (tasks * slices) in
              for k = 0 to slices - 1 do
                let x = x0 +. ((float_of_int k +. 0.5) *. h) in
                Mgs.Api.compute ctx 60;
                local := !local +. (h /. (1.0 +. (x *. x)))
              done
            end
          done;
          (* publish the partial sum *)
          Mgs_sync.Locks.acquire ctx qlock;
          Mgs.Api.write ctx (ctl + 1) (Mgs.Api.read ctx (ctl + 1) +. !local);
          Mgs_sync.Locks.release ctx qlock;
          Mgs_sync.Barrier.wait ctx bar)
    in
    let integral = Mgs.Machine.peek m (ctl + 1) in
    Printf.printf
      "C=%-2d  runtime=%-12d  lock hits %5d/%d (%.2f)  4*integral=%.6f (pi=3.141593)\n"
      cluster report.Mgs.Report.runtime report.Mgs.Report.lock_hits
      report.Mgs.Report.lock_acquires
      (Mgs.Report.lock_hit_ratio report)
      (4.0 *. integral)
  in
  print_endline "dynamic work queue, P = 16:";
  List.iter (fun c -> run ~cluster:c) [ 1; 2; 4; 8; 16 ]
