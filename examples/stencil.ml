(* Stencil: a 1-D heat-diffusion kernel showing how the same program
   behaves across DSSMP shapes — the cluster-size experiment of the
   paper's framework (section 2.4) on a user-written workload.

     dune exec examples/stencil.exe

   Each processor owns a contiguous segment of the rod; neighbouring
   segments share boundary cells, so page-grain sharing appears only at
   segment boundaries while interior updates stay in hardware. *)

let n = 2048 (* rod cells *)

let steps = 4

let make_workload () =
  let prepare m =
    let a = Mgs.Machine.alloc m ~words:(n + 2) ~home:Mgs_mem.Allocator.Blocked in
    let b = Mgs.Machine.alloc m ~words:(n + 2) ~home:Mgs_mem.Allocator.Blocked in
    (* hot spot in the middle *)
    Mgs.Machine.poke m (a + (n / 2)) 1000.0;
    let bar = Mgs_sync.Barrier.create m in
    let body ctx =
      let nprocs = Mgs.Api.nprocs ctx in
      let me = Mgs.Api.proc ctx in
      let per = n / nprocs in
      let lo = 1 + (me * per) in
      let hi = if me = nprocs - 1 then n else lo + per - 1 in
      let src = ref a and dst = ref b in
      for _ = 1 to steps do
        for i = lo to hi do
          let left = Mgs.Api.read ctx (!src + i - 1) in
          let mid = Mgs.Api.read ctx (!src + i) in
          let right = Mgs.Api.read ctx (!src + i + 1) in
          Mgs.Api.compute ctx 20;
          Mgs.Api.write ctx (!dst + i) ((0.25 *. left) +. (0.5 *. mid) +. (0.25 *. right))
        done;
        let t = !src in
        src := !dst;
        dst := t;
        Mgs_sync.Barrier.wait ctx bar
      done
    in
    let check m =
      (* heat is conserved by the kernel's weights *)
      let final = if steps mod 2 = 0 then a else b in
      let total = ref 0.0 in
      for i = 1 to n do
        total := !total +. Mgs.Machine.peek m (final + i)
      done;
      if Float.abs (!total -. 1000.0) > 1e-6 then
        failwith (Printf.sprintf "heat not conserved: %g" !total)
    in
    (body, check)
  in
  { Mgs_harness.Sweep.name = "stencil"; prepare }

let () =
  let cfg = Mgs.Machine.config ~nprocs:16 ~cluster:1 () in
  let points = Mgs_harness.Sweep.sweep cfg (make_workload ()) in
  print_string
    (Mgs_harness.Figures.breakdown_figure ~title:"1-D stencil, P = 16, 1000-cycle LAN" points)
