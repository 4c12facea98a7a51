type params = {
  nmol : int;
  iters : int;
  force_cycles : int;
  seed : int;
  lock : Mgs_sync.Locks.kind;
}

let default =
  { nmol = 128; iters = 2; force_cycles = 15000; seed = 11; lock = Mgs_sync.Locks.Token }

let tiny = { default with nmol = 12; seed = 3 }

(* closest even count to the paper's 343 molecules *)
let paper = { default with nmol = 344 }

let problem_size p = Printf.sprintf "%d molecules, %d iterations" p.nmol p.iters

let dt = 0.002

(* Bounded inverse-square-like pair force: cheap, smooth, and free of
   singularities so results are robust to accumulation order. *)
let pair_force xi yi zi xj yj zj =
  let dx = xi -. xj and dy = yi -. yj and dz = zi -. zj in
  let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 0.05 in
  let inv = 1.0 /. (d2 *. sqrt d2) in
  (dx *. inv, dy *. inv, dz *. inv)

let init_positions p =
  let rng = Mgs_util.Rng.create ~seed:p.seed in
  Array.init (3 * p.nmol) (fun _ -> Mgs_util.Rng.float rng 4.0)

(* The pair set: molecule i interacts with the next nmol/2 molecules
   cyclically; the "opposite" pair is computed only from the lower
   index so each unordered pair appears exactly once. *)
let pairs_of p i =
  let n = p.nmol in
  let half = n / 2 in
  List.filter_map
    (fun k ->
      let j = (i + k) mod n in
      if k < half then Some j else if i < j then Some j else None)
    (List.init half (fun k -> k + 1))

let seq_reference p =
  let n = p.nmol in
  let pos = init_positions p in
  let vel = Array.make (3 * n) 0.0 in
  let force = Array.make (3 * n) 0.0 in
  for _ = 1 to p.iters do
    Array.fill force 0 (3 * n) 0.0;
    for i = 0 to n - 1 do
      List.iter
        (fun j ->
          let fx, fy, fz =
            pair_force pos.(3 * i) pos.((3 * i) + 1) pos.((3 * i) + 2) pos.(3 * j)
              pos.((3 * j) + 1)
              pos.((3 * j) + 2)
          in
          force.(3 * i) <- force.(3 * i) +. fx;
          force.((3 * i) + 1) <- force.((3 * i) + 1) +. fy;
          force.((3 * i) + 2) <- force.((3 * i) + 2) +. fz;
          force.(3 * j) <- force.(3 * j) -. fx;
          force.((3 * j) + 1) <- force.((3 * j) + 1) -. fy;
          force.((3 * j) + 2) <- force.((3 * j) + 2) -. fz)
        (pairs_of p i)
    done;
    for i = 0 to (3 * n) - 1 do
      vel.(i) <- vel.(i) +. (dt *. force.(i));
      pos.(i) <- pos.(i) +. (dt *. vel.(i))
    done
  done;
  pos

let workload p =
  let n = p.nmol in
  if n mod 2 <> 0 then invalid_arg "Water: nmol must be even";
  let prepare m =
    let pos = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
    let vel = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
    let force = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
    (* global statistics: kinetic energy sum, protected by one lock *)
    let stats = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let init = init_positions p in
    Array.iteri (fun i v -> Mgs.Machine.poke m (pos + i) v) init;
    let topo = Mgs.Machine.topo m in
    let nprocs = topo.Mgs_machine.Topology.nprocs in
    let per = (n + nprocs - 1) / nprocs in
    let owner i = min (nprocs - 1) (i / per) in
    (* per-molecule locks homed with the molecule owner's SSMP *)
    let mol_lock =
      Array.init n (fun i ->
          Mgs_sync.Locks.make m
            ~home:(Mgs_machine.Topology.ssmp_of_proc topo (owner i))
            p.lock)
    in
    let stats_lock = Mgs_sync.Locks.make m p.lock in
    let bar = Mgs_sync.Barrier.create m in
    let body ctx =
      let open Mgs.Api in
      let me = proc ctx in
      let m0 = me * per and m1 = min (n - 1) (((me + 1) * per) - 1) in
      for _ = 1 to p.iters do
        (* zero our molecules' force accumulators *)
        for i = m0 to m1 do
          for c = 0 to 2 do
            write ctx (force + (3 * i) + c) 0.0
          done
        done;
        Mgs_sync.Barrier.wait ctx bar;
        (* force interactions: each pair writes both molecules' shared
           accumulators under the per-molecule locks — the structure the
           paper's force-interaction kernel describes *)
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
            (pairs_of p i)
        done;
        Mgs_sync.Barrier.wait ctx bar;
        (* motion update on owned molecules + global statistics *)
        let kinetic = ref 0.0 in
        for i = m0 to m1 do
          for c = 0 to 2 do
            let f = read ctx (force + (3 * i) + c) in
            let v = read ctx (vel + (3 * i) + c) +. (dt *. f) in
            write ctx (vel + (3 * i) + c) v;
            write ctx (pos + (3 * i) + c) (read ctx (pos + (3 * i) + c) +. (dt *. v));
            kinetic := !kinetic +. (0.5 *. v *. v)
          done
        done;
        Mgs_sync.Locks.acquire ctx stats_lock;
        write ctx stats (read ctx stats +. !kinetic);
        Mgs_sync.Locks.release ctx stats_lock;
        Mgs_sync.Barrier.wait ctx bar
      done
    in
    let check m =
      let expect = seq_reference p in
      for i = 0 to (3 * n) - 1 do
        let got = Mgs.Machine.peek m (pos + i) in
        let want = expect.(i) in
        (* force-accumulation order varies with the schedule, and the
           nonlinear dynamics amplify the rounding differences across
           iterations, so the tolerance is looser than the kernels' *)
        let err = Float.abs (got -. want) /. Float.max 1.0 (Float.abs want) in
        if err > 5e-5 then
          failwith (Printf.sprintf "water mismatch at %d: got %.17g want %.17g" i got want)
      done
    in
    (body, check)
  in
  { Mgs_harness.Sweep.name = "Water"; prepare }
