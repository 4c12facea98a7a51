(* Quickstart: the smallest complete MGS program.

   Eight processors in two SSMPs of four increment every element of a
   shared vector under a global lock, then meet at a barrier.  Run with:

     dune exec examples/quickstart.exe *)

let () =
  (* a DSSMP with P = 8 processors in SSMPs of C = 4, 1000-cycle LAN *)
  let cfg = Mgs.Machine.config ~nprocs:8 ~cluster:4 ~lan_latency:1000 () in
  let m = Mgs.Machine.create cfg in

  (* shared memory: a 64-word vector, pages interleaved over homes *)
  let vec = Mgs.Machine.alloc m ~words:64 ~home:Mgs_mem.Allocator.Interleaved in
  for i = 0 to 63 do
    Mgs.Machine.poke m (vec + i) 0.0
  done;

  let lock = Mgs_sync.Locks.(make m Token) in
  let barrier = Mgs_sync.Barrier.create m in

  (* the SPMD body: every processor runs this in its own fiber *)
  let report =
    Mgs.Machine.run m (fun ctx ->
        Mgs_sync.Locks.acquire ctx lock;
        for i = 0 to 63 do
          let v = Mgs.Api.read ctx (vec + i) in
          Mgs.Api.write ctx (vec + i) (v +. 1.0)
        done;
        Mgs_sync.Locks.release ctx lock;
        Mgs_sync.Barrier.wait ctx barrier)
  in

  (* all increments went through page replication, twinning and diff
     merging; the home copies now hold the final values *)
  assert (Mgs.Machine.peek m vec = 8.0);
  Format.printf "vec[0] = %g (expected 8)@." (Mgs.Machine.peek m vec);
  Format.printf "%a@." Mgs.Report.pp report;
  Format.printf "lock hit ratio: %.2f@." (Mgs.Report.lock_hit_ratio report)
