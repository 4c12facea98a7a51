type params = { nmol : int; force_cycles : int; seed : int }

let default = { nmol = 96; force_cycles = 15000; seed = 23 }

let tiny = { nmol = 16; force_cycles = 15000; seed = 9 }

(* the paper's full problem size *)
let paper = { nmol = 512; force_cycles = 15000; seed = 23 }

let problem_size p = Printf.sprintf "%d molecules, 1 iteration" p.nmol

let init_positions p =
  let rng = Mgs_util.Rng.create ~seed:p.seed in
  Array.init (3 * p.nmol) (fun _ -> Mgs_util.Rng.float rng 4.0)

let pair_force = Water.pair_force

(* Reference: force on each molecule is the full sum over the others,
   accumulated in ascending-j order. *)
let seq_reference p =
  let n = p.nmol in
  let pos = init_positions p in
  let force = Array.make (3 * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j <> i then begin
        let fx, fy, fz =
          pair_force pos.(3 * i) pos.((3 * i) + 1) pos.((3 * i) + 2) pos.(3 * j)
            pos.((3 * j) + 1)
            pos.((3 * j) + 2)
        in
        force.(3 * i) <- force.(3 * i) +. fx;
        force.((3 * i) + 1) <- force.((3 * i) + 1) +. fy;
        force.((3 * i) + 2) <- force.((3 * i) + 2) +. fz
      end
    done
  done;
  force

let check_forces p m force =
  let expect = seq_reference p in
  for i = 0 to (3 * p.nmol) - 1 do
    let got = Mgs.Machine.peek m (force + i) in
    let want = expect.(i) in
    let err = Float.abs (got -. want) /. Float.max 1.0 (Float.abs want) in
    if err > 1e-6 then
      failwith (Printf.sprintf "water-kernel mismatch at %d: got %.17g want %.17g" i got want)
  done

let alloc_shared p m =
  let n = p.nmol in
  let pos = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
  let force = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
  Array.iteri (fun i v -> Mgs.Machine.poke m (pos + i) v) (init_positions p);
  (pos, force)

(* ------------------------------------------------------------------ *)
(* Untransformed: Water's force phase verbatim.                        *)
(* ------------------------------------------------------------------ *)

let workload p =
  let n = p.nmol in
  if n mod 2 <> 0 then invalid_arg "Water_kernel: nmol must be even";
  let wp = { Water.default with Water.nmol = n; iters = 1; force_cycles = p.force_cycles; seed = p.seed } in
  let prepare m =
    let pos, force = alloc_shared p m in
    let topo = Mgs.Machine.topo m in
    let nprocs = topo.Mgs_machine.Topology.nprocs in
    let per = (n + nprocs - 1) / nprocs in
    let owner i = min (nprocs - 1) (i / per) in
    let mol_lock =
      Array.init n (fun i ->
          Mgs_sync.Locks.make m
            ~home:(Mgs_machine.Topology.ssmp_of_proc topo (owner i))
            Mgs_sync.Locks.Token)
    in
    let bar = Mgs_sync.Barrier.create m in
    let body ctx =
      let open Mgs.Api in
      let me = proc ctx in
      let m0 = me * per and m1 = min (n - 1) (((me + 1) * per) - 1) in
      for i = m0 to m1 do
        let xi = read ctx (pos + (3 * i)) in
        let yi = read ctx (pos + (3 * i) + 1) in
        let zi = read ctx (pos + (3 * i) + 2) in
        List.iter
          (fun j ->
            let xj = read ctx (pos + (3 * j)) in
            let yj = read ctx (pos + (3 * j) + 1) in
            let zj = read ctx (pos + (3 * j) + 2) in
            compute ctx p.force_cycles;
            let fx, fy, fz = pair_force xi yi zi xj yj zj in
            Mgs_sync.Locks.acquire ctx mol_lock.(i);
            write ctx (force + (3 * i)) (read ctx (force + (3 * i)) +. fx);
            write ctx (force + (3 * i) + 1) (read ctx (force + (3 * i) + 1) +. fy);
            write ctx (force + (3 * i) + 2) (read ctx (force + (3 * i) + 2) +. fz);
            Mgs_sync.Locks.release ctx mol_lock.(i);
            Mgs_sync.Locks.acquire ctx mol_lock.(j);
            write ctx (force + (3 * j)) (read ctx (force + (3 * j)) -. fx);
            write ctx (force + (3 * j) + 1) (read ctx (force + (3 * j) + 1) -. fy);
            write ctx (force + (3 * j) + 2) (read ctx (force + (3 * j) + 2) -. fz);
            Mgs_sync.Locks.release ctx mol_lock.(j))
          (Water.pairs_of wp i)
      done;
      Mgs_sync.Barrier.wait ctx bar
    in
    let check m = check_forces p m force in
    (body, check)
  in
  { Mgs_harness.Sweep.name = "Water-kernel"; prepare }

(* ------------------------------------------------------------------ *)
(* Transformed: tiled with two tiles per SSMP and a tournament         *)
(* schedule giving each SSMP exclusive tile access per phase.          *)
(* ------------------------------------------------------------------ *)

let workload_tiled p =
  let n = p.nmol in
  let prepare m =
    let pos, force = alloc_shared p m in
    let topo = Mgs.Machine.topo m in
    let nprocs = topo.Mgs_machine.Topology.nprocs in
    
    let nssmps = topo.Mgs_machine.Topology.nssmps in
    let ntiles = 2 * nssmps in
    let per_tile = (n + ntiles - 1) / ntiles in
    let tile t = (t * per_tile, min n ((t + 1) * per_tile) - 1) in
    let bar = Mgs_sync.Barrier.create m in
    (* Tournament schedule: round r pairs the fixed tile 0 with a
       rotating tile, and the rest symmetrically; pair k of round r is
       assigned to SSMP k. *)
    let round_pairs r =
      let slot i = if i = 0 then 0 else ((r + i - 1) mod (ntiles - 1)) + 1 in
      List.init (ntiles / 2) (fun k -> (slot k, slot (ntiles - 1 - k)))
    in
    let body ctx =
      let open Mgs.Api in
      let me = proc ctx in
      let s = Mgs_machine.Topology.ssmp_of_proc topo me in
      let cluster = topo.Mgs_machine.Topology.cluster in
      let lidx = me mod cluster in
      let read3 a i = (read ctx (a + (3 * i)), read ctx (a + (3 * i) + 1), read ctx (a + (3 * i) + 2)) in
      let add_force i (fx, fy, fz) =
        write ctx (force + (3 * i)) (read ctx (force + (3 * i)) +. fx);
        write ctx (force + (3 * i) + 1) (read ctx (force + (3 * i) + 1) +. fy);
        write ctx (force + (3 * i) + 2) (read ctx (force + (3 * i) + 2) +. fz)
      in
      (* split a molecule range into [parts] contiguous sub-blocks *)
      let sub (lo, hi) parts q =
        let len = hi - lo + 1 in
        if len <= 0 then (lo, lo - 1)
        else begin
          let per = (len + parts - 1) / parts in
          let a = lo + (q * per) in
          (a, min hi (a + per - 1))
        end
      in
      let do_block (a0, a1) (b0, b1) ~skip_ge =
        for i = a0 to a1 do
          let xi, yi, zi = read3 pos i in
          for j = b0 to b1 do
            if (not skip_ge) || i < j then begin
              let xj, yj, zj = read3 pos j in
              compute ctx p.force_cycles;
              let fx, fy, fz = pair_force xi yi zi xj yj zj in
              add_force i (fx, fy, fz);
              add_force j (-.fx, -.fy, -.fz)
            end
          done
        done
      in
      (* cross phase: tiles ta <> tb; sub-round r gives processor q
         exclusive ownership of i-block q of ta and j-block (q+r) of tb,
         so writes never conflict within the SSMP. *)
      let cross_phase ta tb =
        for r = 0 to cluster - 1 do
          do_block (sub (tile ta) cluster lidx)
            (sub (tile tb) cluster ((lidx + r) mod cluster))
            ~skip_ge:false;
          Mgs_sync.Barrier.wait ctx bar
        done
      in
      (* diagonal phase: internal pairs of one tile.  A second-level
         tournament over 2C blocks keeps writes conflict-free: first
         each processor does its two blocks internally, then round r
         pairs block (slot k) with block (slot 2C-1-k), pair k owned by
         local processor k. *)
      let diag_phase t =
        let nb = 2 * cluster in
        do_block (sub (tile t) nb lidx) (sub (tile t) nb lidx) ~skip_ge:true;
        do_block (sub (tile t) nb (lidx + cluster)) (sub (tile t) nb (lidx + cluster))
          ~skip_ge:true;
        Mgs_sync.Barrier.wait ctx bar;
        if nb >= 2 then
          for r = 0 to nb - 2 do
            let slot i = if i = 0 then 0 else ((r + i - 1) mod (nb - 1)) + 1 in
            do_block (sub (tile t) nb (slot lidx))
              (sub (tile t) nb (slot (nb - 1 - lidx)))
              ~skip_ge:false;
            Mgs_sync.Barrier.wait ctx bar
          done
      in
      (* each SSMP handles its own two tiles' internal pairs *)
      diag_phase (2 * s);
      diag_phase ((2 * s) + 1);
      (* tournament rounds for distinct tile pairs *)
      for r = 0 to ntiles - 2 do
        let ta, tb = List.nth (round_pairs r) s in
        cross_phase ta tb
      done;
      Mgs_sync.Barrier.wait ctx bar
    in
    let check m = check_forces p m force in
    ignore nprocs;
    (body, check)
  in
  { Mgs_harness.Sweep.name = "Water-kernel (tiled)"; prepare }
