type params = { ncities : int; seed : int; eval_cycles : int; lock : Mgs_sync.Locks.kind }

let default = { ncities = 10; seed = 42; eval_cycles = 2000; lock = Mgs_sync.Locks.Token }

let tiny = { ncities = 6; seed = 7; eval_cycles = 200; lock = Mgs_sync.Locks.Token }

(* the paper's problem size is already the default (10 cities) *)
let paper = default

let problem_size p = Printf.sprintf "%d-city tour" p.ncities

(* Symmetric random distance matrix with entries in 1..99. *)
let distances p =
  let rng = Mgs_util.Rng.create ~seed:p.seed in
  let n = p.ncities in
  let d = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = 1 + Mgs_util.Rng.int rng 99 in
      d.(i).(j) <- v;
      d.(j).(i) <- v
    done
  done;
  d

(* Sequential branch and bound (depth-first) for verification. *)
let best_cost p =
  let n = p.ncities in
  let d = distances p in
  let best = ref max_int in
  let visited = Array.make n false in
  visited.(0) <- true;
  let rec go last len cost =
    if cost < !best then begin
      if len = n then begin
        let total = cost + d.(last).(0) in
        if total < !best then best := total
      end
      else
        for c = 1 to n - 1 do
          if not visited.(c) then begin
            visited.(c) <- true;
            go c (len + 1) (cost + d.(last).(c));
            visited.(c) <- false
          end
        done
    end
  in
  go 0 1 0;
  !best

let workload p =
  let n = p.ncities in
  let d = distances p in
  let path_words = n + 2 in
  (* path record: [0] = length, [1] = cost, [2..] = cities in order *)
  let capacity = (4 * n * n * n) + 64 in
  let prepare m =
    let dist = Mgs.Machine.alloc m ~words:(n * n) ~home:Mgs_mem.Allocator.Interleaved in
    (* control block: [0] = stack top, [1] = best cost, [2] = expanding *)
    let ctl = Mgs.Machine.alloc m ~words:3 ~home:(Mgs_mem.Allocator.On_proc 0) in
    let pool =
      Mgs.Machine.alloc m ~words:(capacity * path_words) ~home:Mgs_mem.Allocator.Interleaved
    in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Mgs.Machine.poke m (dist + (i * n) + j) (float_of_int d.(i).(j))
      done
    done;
    (* seed the queue with the single-city tour [0] *)
    Mgs.Machine.poke m (ctl + 0) 1.0;
    (* "infinity" bound; must stay exactly representable as a float *)
    Mgs.Machine.poke m (ctl + 1) 1_000_000_000.0;
    Mgs.Machine.poke m (ctl + 2) 0.0;
    Mgs.Machine.poke m (pool + 0) 1.0;
    Mgs.Machine.poke m (pool + 1) 0.0;
    Mgs.Machine.poke m (pool + 2) 0.0;
    let qlock = Mgs_sync.Locks.make m p.lock in
    let bar = Mgs_sync.Barrier.create m in
    let body ctx =
      let open Mgs.Api in
      let rd_dist a b = read_int ctx (dist + (a * n) + b) in
      let cities = Array.make n 0 in
      let running = ref true in
      while !running do
        Mgs_sync.Locks.acquire ctx qlock;
        let top = read_int ctx (ctl + 0) in
        if top > 0 then begin
          (* pop the newest path (depth-first) and mark us expanding *)
          write_int ctx (ctl + 0) (top - 1);
          write_int ctx (ctl + 2) (read_int ctx (ctl + 2) + 1);
          let slot = pool + ((top - 1) * path_words) in
          let len = read_int ctx ~kind:Pointer (slot + 0) in
          let cost = read_int ctx ~kind:Pointer (slot + 1) in
          for i = 0 to len - 1 do
            cities.(i) <- read_int ctx ~kind:Pointer (slot + 2 + i)
          done;
          let bound = read_int ctx (ctl + 1) in
          Mgs_sync.Locks.release ctx qlock;
          (* expand outside the lock *)
          let last = cities.(len - 1) in
          let in_path c =
            let rec go i = i < len && (cities.(i) = c || go (i + 1)) in
            go 0
          in
          (* only the seed path of a one-city problem is popped complete *)
          let completed = ref (if len = n then cost + rd_dist last 0 else max_int) in
          for c = 1 to n - 1 do
            if not (in_path c) then begin
              compute ctx p.eval_cycles;
              let ncost = cost + rd_dist last c in
              if len + 1 = n then begin
                let total = ncost + rd_dist c 0 in
                if total < !completed then completed := total
              end
              else if ncost < bound then begin
                (* push the child path (one short critical section per
                   child, as in the paper's centralized work queue) *)
                Mgs_sync.Locks.acquire ctx qlock;
                let t = read_int ctx (ctl + 0) in
                if t >= capacity then failwith "tsp: work queue overflow";
                let s = pool + (t * path_words) in
                write_int ctx ~kind:Pointer (s + 0) (len + 1);
                write_int ctx ~kind:Pointer (s + 1) ncost;
                for i = 0 to len - 1 do
                  write_int ctx ~kind:Pointer (s + 2 + i) cities.(i)
                done;
                write_int ctx ~kind:Pointer (s + 2 + len) c;
                write_int ctx (ctl + 0) (t + 1);
                Mgs_sync.Locks.release ctx qlock
              end
            end
          done;
          (* fold a completed tour into the global bound, leave expanding *)
          Mgs_sync.Locks.acquire ctx qlock;
          if !completed < read_int ctx (ctl + 1) then write_int ctx (ctl + 1) !completed;
          write_int ctx (ctl + 2) (read_int ctx (ctl + 2) - 1);
          Mgs_sync.Locks.release ctx qlock
        end
        else begin
          let expanding = read_int ctx (ctl + 2) in
          Mgs_sync.Locks.release ctx qlock;
          if expanding = 0 then running := false else compute ctx 400
        end
      done;
      Mgs_sync.Barrier.wait ctx bar
    in
    let check m =
      let got = int_of_float (Mgs.Machine.peek m (ctl + 1)) in
      let want = best_cost p in
      if got <> want then failwith (Printf.sprintf "tsp: got optimum %d, want %d" got want)
    in
    (body, check)
  in
  { Mgs_harness.Sweep.name = "TSP"; prepare }
