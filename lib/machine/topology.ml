type t = { nprocs : int; cluster : int; nssmps : int }

let create ~nprocs ~cluster =
  if nprocs <= 0 then
    invalid_arg (Printf.sprintf "Topology.create: nprocs must be at least 1, got %d" nprocs);
  if cluster <= 0 || cluster > nprocs then
    invalid_arg
      (Printf.sprintf "Topology.create: cluster must be in 1..%d, got %d" nprocs cluster);
  if nprocs mod cluster <> 0 then invalid_arg "Topology.create: cluster must divide nprocs";
  { nprocs; cluster; nssmps = nprocs / cluster }

let ssmp_of_proc t p =
  if p < 0 || p >= t.nprocs then invalid_arg "Topology.ssmp_of_proc";
  p / t.cluster

let first_proc_of_ssmp t s =
  if s < 0 || s >= t.nssmps then invalid_arg "Topology.first_proc_of_ssmp";
  s * t.cluster

let procs_of_ssmp t s =
  let base = first_proc_of_ssmp t s in
  List.init t.cluster (fun i -> base + i)

let same_ssmp t a b = ssmp_of_proc t a = ssmp_of_proc t b

let single_ssmp t = t.nssmps = 1
