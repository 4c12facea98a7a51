type measurement = { name : string; group : string; paper : int; measured : int }

(* Each micro benchmark is a workload on a dedicated little machine: it
   sequences its steps with generous wall-clock gaps (Api.idle_until),
   brackets the operation of interest with Api.cycles, and subtracts the
   independently measured overheads (translation, the data access after
   a fault) so the number it records isolates the same quantity as Table 3. *)

let step = 1_000_000 (* cycle gap between sequenced steps *)

(* every micro machine runs the default costs *)
let hw = Mgs_machine.Costs.default.hardware

let xl = Mgs_machine.Costs.default.svm.array_translation

(* record the cycles [f] takes, less [extra], as [name]'s measurement *)
let bracket results ctx name extra f =
  let c0 = Mgs.Api.cycles ctx in
  f ();
  Hashtbl.replace results name (Mgs.Api.cycles ctx - c0 - extra)

let program name body = { Sweep.name; prepare = (fun m -> (body m, ignore)) }

(* --- hardware shared memory (single SSMP, C = P: no software protocol) *)

let measure_hardware results =
  program "Table 3 hardware" (fun m ->
      let base = Mgs.Machine.alloc m ~words:1024 ~home:(Mgs_mem.Allocator.On_proc 0) in
      let lw = (Mgs.Machine.geom m).Mgs_mem.Geom.line_words in
      let bracket ctx name extra f = bracket results ctx name (xl + extra) f in
      fun ctx ->
        let p = Mgs.Api.proc ctx in
        (* line k of the page is word base + k*lw *)
        let line k = base + (k * lw) in
        (match p with
        | 0 ->
          (* warm the TLB so fills don't pollute the first bracket *)
          ignore (Mgs.Api.read ctx (line 0));
          bracket ctx "Cache Miss Local" 0 (fun () -> ignore (Mgs.Api.read ctx (line 1)));
          Mgs.Api.idle_until ctx (3 * step);
          (* dirty line 3 at home for the 2-party measurement *)
          Mgs.Api.write ctx (line 3) 1.0
        | 1 ->
          Mgs.Api.idle_until ctx step;
          ignore (Mgs.Api.read ctx (line 0));
          bracket ctx "Cache Miss Remote" 0 (fun () -> ignore (Mgs.Api.read ctx (line 2)));
          Mgs.Api.idle_until ctx (4 * step);
          bracket ctx "Cache Miss 2-party" 0 (fun () -> ignore (Mgs.Api.read ctx (line 3)));
          (* dirty line 4 away from home for the 3-party measurement *)
          Mgs.Api.write ctx (line 4) 2.0
        | 2 ->
          Mgs.Api.idle_until ctx (5 * step);
          ignore (Mgs.Api.read ctx (line 0));
          bracket ctx "Cache Miss 3-party" 0 (fun () -> ignore (Mgs.Api.read ctx (line 4)))
        | _ -> ());
        (* procs 0..6 populate line 5's sharer set past the five
           hardware pointers; proc 7 then measures the LimitLESS
           software-extended read. *)
        Mgs.Api.idle_until ctx ((6 + p) * step);
        if p < 7 then ignore (Mgs.Api.read ctx (line 5))
        else begin
          (* warm proc 7's TLB on another line of the same page *)
          ignore (Mgs.Api.read ctx (line 6));
          bracket ctx "Remote Software" hw.miss_remote (fun () ->
              ignore (Mgs.Api.read ctx (line 5)))
        end;
        Mgs.Api.idle_until ctx (20 * step))

(* --- software virtual memory ---------------------------------------- *)

let measure_svm results =
  program "Table 3 SVM" (fun m ->
      let base = Mgs.Machine.alloc m ~words:128 ~home:(Mgs_mem.Allocator.On_proc 0) in
      fun ctx ->
        ignore (Mgs.Api.read ctx base);
        bracket results ctx "Distributed Array Translation" hw.cache_hit (fun () ->
            ignore (Mgs.Api.read ctx ~kind:Mgs_svm.Translate.Array base));
        bracket results ctx "Pointer Translation" hw.cache_hit (fun () ->
            ignore (Mgs.Api.read ctx ~kind:Mgs_svm.Translate.Pointer base)))

(* --- software shared memory (multi-SSMP, zero LAN delay) ------------- *)

let measure_ssm results =
  program "Table 3 SSM" (fun m ->
      let pw = (Mgs.Machine.geom m).Mgs_mem.Geom.page_words in
      (* one page per software measurement, all homed on proc 0 (SSMP 0) *)
      let page () = Mgs.Machine.alloc m ~words:pw ~home:(Mgs_mem.Allocator.On_proc 0) in
      let page_a = page () in
      let page_b = page () in
      let page_c = page () in
      let page_d = page () in
      let bracket = bracket results in
      fun ctx ->
        (match Mgs.Api.proc ctx with
        | 1 ->
          (* bring page_a into SSMP 0 so proc 0 can measure a pure fill *)
          ignore (Mgs.Api.read ctx page_a)
        | 0 ->
          Mgs.Api.idle_until ctx step;
          bracket ctx "TLB Fill" (xl + hw.miss_remote) (fun () ->
              ignore (Mgs.Api.read ctx page_a))
        | 2 ->
          (* SSMP 1: inter-SSMP read and write misses, then the
             single-writer release *)
          Mgs.Api.idle_until ctx (2 * step);
          bracket ctx "Inter-SSMP Read Miss" (xl + hw.miss_local) (fun () ->
              ignore (Mgs.Api.read ctx page_b));
          Mgs.Api.idle_until ctx (3 * step);
          bracket ctx "Inter-SSMP Write Miss" (xl + hw.miss_local) (fun () ->
              Mgs.Api.write ctx page_c 1.0);
          Mgs.Api.idle_until ctx (4 * step);
          bracket ctx "Release (1 writer)" 0 (fun () -> Mgs.Api.release ctx);
          (* two-writer release: dirty the low half of page_d, wait for
             SSMP 2 to dirty the high half *)
          Mgs.Api.idle_until ctx (5 * step);
          for i = 0 to (pw / 2) - 1 do
            Mgs.Api.write ctx (page_d + i) 2.0
          done;
          Mgs.Api.idle_until ctx (7 * step);
          bracket ctx "Release (2 writers)" 0 (fun () -> Mgs.Api.release ctx)
        | 4 ->
          (* SSMP 2: second writer of page_d; it leaves its copy for
             SSMP 1's measured release to invalidate *)
          Mgs.Api.idle_until ctx (6 * step);
          for i = pw / 2 to pw - 1 do
            Mgs.Api.write ctx (page_d + i) 3.0
          done
        | _ -> ());
        Mgs.Api.idle_until ctx (20 * step);
        (* unmeasured: end released, with no pending sync at quiescence *)
        Mgs.Api.release ctx)

let paper_values =
  [
    ("Cache Miss Local", "Hardware Shared Memory", 11);
    ("Cache Miss Remote", "Hardware Shared Memory", 38);
    ("Cache Miss 2-party", "Hardware Shared Memory", 42);
    ("Cache Miss 3-party", "Hardware Shared Memory", 63);
    ("Remote Software", "Hardware Shared Memory", 425);
    ("Distributed Array Translation", "Software Virtual Memory", 18);
    ("Pointer Translation", "Software Virtual Memory", 24);
    ("TLB Fill", "Software Shared Memory", 1037);
    ("Inter-SSMP Read Miss", "Software Shared Memory", 6982);
    ("Inter-SSMP Write Miss", "Software Shared Memory", 16331);
    ("Release (1 writer)", "Software Shared Memory", 14226);
    ("Release (2 writers)", "Software Shared Memory", 32570);
  ]

let run_all () =
  let results = Hashtbl.create 16 in
  List.iter
    (fun (cfg, program) -> ignore (Sweep.run_point cfg (program results)))
    [
      (Mgs.Machine.config ~nprocs:8 ~cluster:8 (), measure_hardware);
      (Mgs.Machine.config ~nprocs:1 ~cluster:1 (), measure_svm);
      (Mgs.Machine.config ~lan_latency:0 ~nprocs:8 ~cluster:2 (), measure_ssm);
    ];
  List.map
    (fun (name, group, paper) ->
      match Hashtbl.find_opt results name with
      | Some measured -> { name; group; paper; measured }
      | None -> failwith ("micro measurement missing: " ^ name))
    paper_values

(* --- contended-lock microbenchmarks (Figure 11 companion) ------------ *)

(* One contended-lock run: [fibers] processors hammer a single lock,
   each critical section reading and incrementing a lock-protected
   shared counter (so coherence work rides the lock exactly as in the
   apps), with think time between iterations.  The counter doubles as
   the correctness oracle: every increment must survive whichever lock
   algorithm and coherence protocol ran.  Handoff and gap statistics are
   read after the run from the lock the workload's [prepare] made. *)

type lock_point = {
  lk_lock : Mgs_sync.Locks.kind;
  lk_protocol : Mgs.State.protocol;
  lk_cluster : int;
  lk_fibers : int;  (** contending fibers (one per processor) *)
  lk_acquires : int;
  lk_hit_ratio : float;
  lk_handoffs : int;
  lk_gap : Mgs_sync.Locks.gap_stats;  (** handoff latency + fairness *)
  lk_runtime : int;
  lk_sim_events : int;
}

let crit = 200 (* cycles in each critical section *)

let think = 1500 (* cycles between a release and the next acquire *)

let lock_point ?(iters = 16) ?(par = 1) ~lock ~protocol ~cluster ~fibers () =
  (* enough processors for the contenders, rounded up so C divides P *)
  let nprocs = (max fibers cluster + cluster - 1) / cluster * cluster in
  let name =
    Printf.sprintf "lock bench %s/%s n=%d" (Mgs_sync.Locks.name_of lock)
      (Mgs.Protocol.name_of protocol) fibers
  in
  let made = ref None in
  let prepare m =
    let counter =
      Mgs.Machine.alloc m
        ~words:(Mgs.Machine.geom m).Mgs_mem.Geom.page_words
        ~home:(Mgs_mem.Allocator.On_proc 0)
    in
    Mgs.Machine.poke m counter 0.0;
    let l = Mgs_sync.Locks.make m lock in
    made := Some l;
    let body ctx =
      let p = Mgs.Api.proc ctx in
      if p < fibers then begin
        (* stagger arrivals so the queues see varied interleavings *)
        Mgs.Api.compute ctx (1 + (p * 613));
        for _ = 1 to iters do
          Mgs_sync.Locks.acquire ctx l;
          let v = Mgs.Api.read ctx counter in
          Mgs.Api.compute ctx crit;
          Mgs.Api.write ctx counter (v +. 1.);
          Mgs_sync.Locks.release ctx l;
          Mgs.Api.compute ctx think
        done
      end
    in
    let verify m =
      let got = Mgs.Machine.peek m counter in
      if got <> float_of_int (fibers * iters) then
        failwith
          (Printf.sprintf "%s C=%d: counter %.0f, expected %d" name cluster got (fibers * iters))
    in
    (body, verify)
  in
  let { Sweep.report; _ } =
    Sweep.run_point
      (Mgs.Machine.config ~protocol ~par_jobs:par ~nprocs ~cluster ())
      { Sweep.name; prepare }
  in
  let l = Option.get !made in
  {
    lk_lock = lock;
    lk_protocol = protocol;
    lk_cluster = cluster;
    lk_fibers = fibers;
    lk_acquires = report.Mgs.Report.lock_acquires;
    lk_hit_ratio = Mgs.Report.lock_hit_ratio report;
    lk_handoffs = Mgs_sync.Locks.handoffs l;
    lk_gap = Mgs_sync.Locks.gap_stats l;
    lk_runtime = report.Mgs.Report.runtime;
    lk_sim_events = report.Mgs.Report.sim_events;
  }

type lock_spec = Mgs_sync.Locks.kind * Mgs.State.protocol * int * int

(* The full family, in deterministic order; [jobs] fans points out over
   domains with byte-identical results.  [specs] rows are
   (lock, protocol, cluster, fibers). *)
let lock_family ?iters ?par ?(jobs = 1) specs =
  Mgs_util.Dpool.map ~jobs
    (fun (lock, protocol, cluster, fibers) ->
      lock_point ?iters ?par ~lock ~protocol ~cluster ~fibers ())
    specs

(* lock scalability: every lock at C in {1,4,16} under every
   protocol, at a fixed contention level of 16 fibers *)
let lock_cluster_specs () =
  List.concat_map
    (fun lock ->
      List.concat_map
        (fun protocol -> List.map (fun cluster -> (lock, protocol, cluster, 16)) [ 1; 4; 16 ])
        Mgs.State.[ Protocol_mgs; Protocol_hlrc; Protocol_ivy ])
    Mgs_sync.Locks.all

(* contention scaling: 1..64 contending fibers at C = 4 under MGS *)
let lock_contention_specs () =
  List.concat_map
    (fun lock ->
      List.map (fun fibers -> (lock, Mgs.State.Protocol_mgs, 4, fibers)) [ 1; 4; 16; 64 ])
    Mgs_sync.Locks.all

let print_table ms =
  let rows =
    List.map
      (fun m ->
        [
          m.group;
          m.name;
          string_of_int m.paper;
          string_of_int m.measured;
          Printf.sprintf "%.2f" (float_of_int m.measured /. float_of_int m.paper);
        ])
      ms
  in
  Mgs_util.Tableprint.print
    ~header:[ "Group"; "Operation"; "Paper (cycles)"; "Measured"; "Ratio" ]
    ~rows
