type params = {
  nbodies : int;
  iters : int;
  theta : float;
  force_cycles : int;
  seed : int;
  lock : Mgs_sync.Locks.kind;
}

let default =
  {
    nbodies = 128;
    iters = 2;
    theta = 0.6;
    force_cycles = 400;
    seed = 17;
    lock = Mgs_sync.Locks.Token;
  }

let tiny = { default with nbodies = 24; seed = 5 }

(* the paper's full problem size *)
let paper = { default with nbodies = 2048; iters = 3 }

let problem_size p = Printf.sprintf "%d bodies, %d iterations" p.nbodies p.iters

let dt = 0.01

(* Universe geometry: bodies start inside [0,4)^3; the fixed root cell
   is centred there with a wide margin so slow drift never escapes. *)
let root_center = (2.0, 2.0, 2.0)

let root_half = 16.0

let cell_stride = 16
(* cell layout: [0..7] children, [8..10] centre, [11] half size,
   [12..14] centre of mass, [15] mass.
   child encoding: 0 = empty, k+1 = cell k, -(b+1) = body b. *)

let init_positions p =
  let rng = Mgs_util.Rng.create ~seed:p.seed in
  Array.init (3 * p.nbodies) (fun _ -> Mgs_util.Rng.float rng 4.0)

let octant x y z cx cy cz =
  (if x >= cx then 1 else 0) lor (if y >= cy then 2 else 0) lor if z >= cz then 4 else 0

let sub_center cx cy cz half oct =
  let q = half /. 2.0 in
  ( (cx +. if oct land 1 <> 0 then q else -.q),
    (cy +. if oct land 2 <> 0 then q else -.q),
    (cz +. if oct land 4 <> 0 then q else -.q) )

(* Same bounded kernel as Water, so forces are smooth. *)
let pair_force xi yi zi xj yj zj mj =
  let dx = xj -. xi and dy = yj -. yi and dz = zj -. zi in
  let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 0.05 in
  let inv = mj /. (d2 *. sqrt d2) in
  (dx *. inv, dy *. inv, dz *. inv)

(* ------------------------------------------------------------------ *)
(* Sequential reference: the same algorithm on plain arrays.           *)
(* ------------------------------------------------------------------ *)

type ref_cell = {
  mutable children : int array; (* same encoding as shared layout *)
  rc_center : float * float * float;
  rc_half : float;
  mutable com : float * float * float;
  mutable cmass : float;
}

let seq_reference p =
  let n = p.nbodies in
  let pos = init_positions p in
  let vel = Array.make (3 * n) 0.0 in
  let cells = ref [||] in
  let ncells = ref 0 in
  let new_cell center half =
    if !ncells >= Array.length !cells then begin
      let bigger =
        Array.init
          (max 64 (2 * Array.length !cells))
          (fun i ->
            if i < !ncells then !cells.(i)
            else
              {
                children = Array.make 8 0;
                rc_center = (0., 0., 0.);
                rc_half = 0.;
                com = (0., 0., 0.);
                cmass = 0.;
              })
      in
      cells := bigger
    end;
    let id = !ncells in
    incr ncells;
    !cells.(id) <-
      { children = Array.make 8 0; rc_center = center; rc_half = half; com = (0., 0., 0.); cmass = 0. };
    id
  in
  let bx b = (pos.(3 * b), pos.((3 * b) + 1), pos.((3 * b) + 2)) in
  let rec insert cur b =
    let c = !cells.(cur) in
    let x, y, z = bx b in
    let cx, cy, cz = c.rc_center in
    let oct = octant x y z cx cy cz in
    match c.children.(oct) with
    | 0 -> c.children.(oct) <- -(b + 1)
    | ch when ch > 0 -> insert (ch - 1) b
    | ch ->
      let b2 = -ch - 1 in
      let sc = sub_center cx cy cz c.rc_half oct in
      let nc = new_cell sc (c.rc_half /. 2.0) in
      let x2, y2, z2 = bx b2 in
      let scx, scy, scz = sc in
      let oct2 = octant x2 y2 z2 scx scy scz in
      !cells.(nc).children.(oct2) <- -(b2 + 1);
      c.children.(oct) <- nc + 1;
      insert nc b
  in
  let rec compute_com cur =
    let c = !cells.(cur) in
    let mx = ref 0. and my = ref 0. and mz = ref 0. and mm = ref 0. in
    for o = 0 to 7 do
      match c.children.(o) with
      | 0 -> ()
      | ch when ch > 0 ->
        compute_com (ch - 1);
        let sx, sy, sz = !cells.(ch - 1).com in
        let sm = !cells.(ch - 1).cmass in
        mx := !mx +. (sx *. sm);
        my := !my +. (sy *. sm);
        mz := !mz +. (sz *. sm);
        mm := !mm +. sm
      | ch ->
        let b = -ch - 1 in
        let x, y, z = bx b in
        mx := !mx +. x;
        my := !my +. y;
        mz := !mz +. z;
        mm := !mm +. 1.0
    done;
    c.cmass <- !mm;
    c.com <- (if !mm > 0. then (!mx /. !mm, !my /. !mm, !mz /. !mm) else c.rc_center)
  in
  let rec force cur b (ax, ay, az) =
    let c = !cells.(cur) in
    let fold acc o =
      match c.children.(o) with
      | 0 -> acc
      | ch when ch > 0 ->
        let sub = !cells.(ch - 1) in
        let x, y, z = bx b in
        let sx, sy, sz = sub.com in
        let dx = sx -. x and dy = sy -. y and dz = sz -. z in
        let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        let size = 2.0 *. sub.rc_half in
        if size *. size < p.theta *. p.theta *. d2 then begin
          let fx, fy, fz = pair_force x y z sx sy sz sub.cmass in
          let ax, ay, az = acc in
          (ax +. fx, ay +. fy, az +. fz)
        end
        else force (ch - 1) b acc
      | ch ->
        let b2 = -ch - 1 in
        if b2 = b then acc
        else begin
          let x, y, z = bx b in
          let x2, y2, z2 = bx b2 in
          let fx, fy, fz = pair_force x y z x2 y2 z2 1.0 in
          let ax, ay, az = acc in
          (ax +. fx, ay +. fy, az +. fz)
        end
    in
    List.fold_left fold (ax, ay, az) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  for _ = 1 to p.iters do
    cells := [||];
    ncells := 0;
    let root = new_cell root_center root_half in
    for b = 0 to n - 1 do
      insert root b
    done;
    compute_com root;
    let accs = Array.make (3 * n) 0.0 in
    for b = 0 to n - 1 do
      let ax, ay, az = force root b (0., 0., 0.) in
      accs.(3 * b) <- ax;
      accs.((3 * b) + 1) <- ay;
      accs.((3 * b) + 2) <- az
    done;
    for i = 0 to (3 * n) - 1 do
      vel.(i) <- vel.(i) +. (dt *. accs.(i));
      pos.(i) <- pos.(i) +. (dt *. vel.(i))
    done
  done;
  pos

(* ------------------------------------------------------------------ *)
(* Parallel version on the simulated machine.                          *)
(* ------------------------------------------------------------------ *)

let workload p =
  let n = p.nbodies in
  let cap = 16 * n in
  let prepare m =
    let open Mgs.Api in
    let pos = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
    let vel = Mgs.Machine.alloc m ~words:(3 * n) ~home:Mgs_mem.Allocator.Blocked in
    let pool =
      Mgs.Machine.alloc m ~words:(cap * cell_stride) ~home:Mgs_mem.Allocator.Blocked
    in
    Array.iteri (fun i v -> Mgs.Machine.poke m (pos + i) v) (init_positions p);
    let nprocs = (Mgs.Machine.topo m).Mgs_machine.Topology.nprocs in
    let per = (n + nprocs - 1) / nprocs in
    let chunk = cap / nprocs in
    let topo = Mgs.Machine.topo m in
    let chunk0 = cap / nprocs in
    let cell_lock =
      Array.init cap (fun i ->
          (* home a cell's lock with the SSMP of the processor whose
             pool chunk holds the cell *)
          let owner = min (nprocs - 1) (i / max 1 chunk0) in
          Mgs_sync.Locks.make m ~home:(Mgs_machine.Topology.ssmp_of_proc topo owner) p.lock)
    in
    let bar = Mgs_sync.Barrier.create m in
    let cell_base idx = pool + (idx * cell_stride) in
    let body ctx =
      let me = proc ctx in
      let b0 = me * per and b1 = min (n - 1) (((me + 1) * per) - 1) in
      let cursor = ref (if me = 0 then 1 else me * chunk) in
      let rd a = read ctx ~kind:Mgs_svm.Translate.Pointer a in
      let wr a v = write ctx ~kind:Mgs_svm.Translate.Pointer a v in
      let body_pos b = (read ctx (pos + (3 * b)), read ctx (pos + (3 * b) + 1), read ctx (pos + (3 * b) + 2)) in
      (* allocate and initialize a fresh (still private) cell *)
      let new_cell (cx, cy, cz) half =
        if !cursor >= min cap ((me + 1) * chunk) then
          failwith "barnes: cell pool chunk exhausted";
        let idx = !cursor in
        incr cursor;
        let base = cell_base idx in
        for o = 0 to 7 do
          wr (base + o) 0.0
        done;
        wr (base + 8) cx;
        wr (base + 9) cy;
        wr (base + 10) cz;
        wr (base + 11) half;
        idx
      in
      let insert b =
        let x, y, z = body_pos b in
        let cur = ref 0 in
        let inserted = ref false in
        while not !inserted do
          let base = cell_base !cur in
          Mgs_sync.Locks.acquire ctx cell_lock.(!cur);
          let cx = rd (base + 8) and cy = rd (base + 9) and cz = rd (base + 10) in
          let half = rd (base + 11) in
          let oct = octant x y z cx cy cz in
          let ch = int_of_float (rd (base + oct)) in
          if ch = 0 then begin
            wr (base + oct) (float_of_int (-(b + 1)));
            Mgs_sync.Locks.release ctx cell_lock.(!cur);
            inserted := true
          end
          else if ch > 0 then begin
            Mgs_sync.Locks.release ctx cell_lock.(!cur);
            cur := ch - 1
          end
          else begin
            (* split: push the resident body one level down *)
            let b2 = -ch - 1 in
            let ((scx, scy, scz) as sc) = sub_center cx cy cz half oct in
            let nc = new_cell sc (half /. 2.0) in
            let x2, y2, z2 = body_pos b2 in
            let oct2 = octant x2 y2 z2 scx scy scz in
            wr (cell_base nc + oct2) (float_of_int (-(b2 + 1)));
            wr (base + oct) (float_of_int (nc + 1));
            Mgs_sync.Locks.release ctx cell_lock.(!cur);
            cur := nc
          end
        done
      in
      (* [recurse = false] combines already-computed child COMs only —
         used for the root after the parallel per-octant pass. *)
      let rec compute_com ?(recurse = true) cur =
        let base = cell_base cur in
        let mx = ref 0. and my = ref 0. and mz = ref 0. and mm = ref 0. in
        for o = 0 to 7 do
          let ch = int_of_float (rd (base + o)) in
          if ch > 0 then begin
            if recurse then compute_com (ch - 1);
            let sb = cell_base (ch - 1) in
            let sm = rd (sb + 15) in
            mx := !mx +. (rd (sb + 12) *. sm);
            my := !my +. (rd (sb + 13) *. sm);
            mz := !mz +. (rd (sb + 14) *. sm);
            mm := !mm +. sm
          end
          else if ch < 0 then begin
            let x, y, z = body_pos (-ch - 1) in
            mx := !mx +. x;
            my := !my +. y;
            mz := !mz +. z;
            mm := !mm +. 1.0
          end
        done;
        let mm' = !mm in
        wr (base + 15) mm';
        if mm' > 0. then begin
          wr (base + 12) (!mx /. mm');
          wr (base + 13) (!my /. mm');
          wr (base + 14) (!mz /. mm')
        end
        else begin
          wr (base + 12) (rd (base + 8));
          wr (base + 13) (rd (base + 9));
          wr (base + 14) (rd (base + 10))
        end
      in
      let rec force cur b acc =
        let base = cell_base cur in
        let acc = ref acc in
        for o = 0 to 7 do
          let ch = int_of_float (rd (base + o)) in
          if ch > 0 then begin
            let sb = cell_base (ch - 1) in
            let x, y, z = body_pos b in
            let sx = rd (sb + 12) and sy = rd (sb + 13) and sz = rd (sb + 14) in
            let dx = sx -. x and dy = sy -. y and dz = sz -. z in
            let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
            let size = 2.0 *. rd (sb + 11) in
            if size *. size < p.theta *. p.theta *. d2 then begin
              compute ctx p.force_cycles;
              let fx, fy, fz = pair_force x y z sx sy sz (rd (sb + 15)) in
              let ax, ay, az = !acc in
              acc := (ax +. fx, ay +. fy, az +. fz)
            end
            else acc := force (ch - 1) b !acc
          end
          else if ch < 0 && -ch - 1 <> b then begin
            compute ctx p.force_cycles;
            let x, y, z = body_pos b in
            let x2, y2, z2 = body_pos (-ch - 1) in
            let fx, fy, fz = pair_force x y z x2 y2 z2 1.0 in
            let ax, ay, az = !acc in
            acc := (ax +. fx, ay +. fy, az +. fz)
          end
        done;
        !acc
      in
      for _ = 1 to p.iters do
        (* reset: proc 0 reinitializes the root; everyone resets cursors *)
        cursor := (if me = 0 then 1 else me * chunk);
        if me = 0 then begin
          let base = cell_base 0 in
          for o = 0 to 7 do
            wr (base + o) 0.0
          done;
          let cx, cy, cz = root_center in
          wr (base + 8) cx;
          wr (base + 9) cy;
          wr (base + 10) cz;
          wr (base + 11) root_half
        end;
        Mgs_sync.Barrier.wait ctx bar;
        (* parallel tree build *)
        for b = b0 to b1 do
          insert b
        done;
        Mgs_sync.Barrier.wait ctx bar;
        (* bottom-up centres of mass: one proc per root octant *)
        if me < 8 then begin
          let root = cell_base 0 in
          for o = 0 to 7 do
            if o mod min 8 nprocs = me then begin
              let ch = int_of_float (rd (root + o)) in
              if ch > 0 then compute_com (ch - 1)
            end
          done
        end;
        Mgs_sync.Barrier.wait ctx bar;
        (* root's own centre of mass from the children's results *)
        if me = 0 then compute_com ~recurse:false 0;
        Mgs_sync.Barrier.wait ctx bar;
        (* forces on owned bodies, then motion *)
        let accs = Array.make (3 * max 0 ((b1 - b0) + 1)) 0.0 in
        for b = b0 to b1 do
          let ax, ay, az = force 0 b (0., 0., 0.) in
          accs.(3 * (b - b0)) <- ax;
          accs.((3 * (b - b0)) + 1) <- ay;
          accs.((3 * (b - b0)) + 2) <- az
        done;
        Mgs_sync.Barrier.wait ctx bar;
        for b = b0 to b1 do
          for c = 0 to 2 do
            let a = accs.((3 * (b - b0)) + c) in
            let v = read ctx (vel + (3 * b) + c) +. (dt *. a) in
            write ctx (vel + (3 * b) + c) v;
            write ctx (pos + (3 * b) + c) (read ctx (pos + (3 * b) + c) +. (dt *. v))
          done
        done;
        Mgs_sync.Barrier.wait ctx bar
      done
    in
    let check m =
      let expect = seq_reference p in
      for i = 0 to (3 * n) - 1 do
        let got = Mgs.Machine.peek m (pos + i) in
        let want = expect.(i) in
        let err = Float.abs (got -. want) /. Float.max 1.0 (Float.abs want) in
        if err > 1e-9 then
          failwith (Printf.sprintf "barnes mismatch at %d: got %.17g want %.17g" i got want)
      done
    in
    (body, check)
  in
  { Mgs_harness.Sweep.name = "Barnes-Hut"; prepare }
