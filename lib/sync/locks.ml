open Mgs.State

(* Pluggable lock algorithms behind one face, mirroring the
   [Mgs.Protocol] registry: the harness and the CLIs select a lock by
   name, and adding an algorithm means one [register] call.

   Every algorithm is home-based: a designated home processor holds the
   arbitration state (the test-and-set word, the ticket counters, the
   queue tail) and fibers talk to it with active messages, paying the
   same occupancy and LAN costs as the coherence protocols.  The
   paper's token lock is the baseline entry, delegating to {!Lock}
   unchanged so that existing runs stay byte-identical.

   Host-side instrumentation (handoff gaps, wait cycles, the
   [lock.handoff] spans) lives in the wrapper below, outside the
   simulated machine: it never schedules events, charges cycles, or
   posts messages, so enabling it cannot move a single simulated
   cycle. *)

(* --- the algorithm face -------------------------------------------- *)

type raw = {
  r_acquire : Mgs.Api.ctx -> unit;
  r_release : Mgs.Api.ctx -> unit;
  r_acquires : unit -> int;
  r_hits : unit -> int;
  r_waiters : unit -> int;
  r_waiters_cell : int -> int; (* one SSMP's parked fibers, shard-local *)
  r_reset : unit -> unit;
}

(* --- shared fiber-side plumbing ------------------------------------ *)

let msg m = count m Mgs.Pstats.lock_msgs 1

(* One-shot parking lot: hand [wake] to a message handler, then [park]
   the calling fiber until it fires. *)
let parker m =
  let q = Mgs_engine.Waitq.create () in
  let wake () = ignore (Mgs_engine.Waitq.wake_one m.sim q) in
  (q, wake)

(* Per-SSMP episode counters: fiber-side code bumps the cell of the
   calling processor's SSMP — the shard it executes on — so concurrent
   shards of the parallel engine never write the same slot.  Accessors
   sum; sums are commutative, so they match at every job count. *)
type cells = { acquires : int array; hits : int array; blocked : int array }

let cells (m : Mgs.Machine.t) =
  let n = m.topo.Topology.nssmps in
  { acquires = Array.make n 0; hits = Array.make n 0; blocked = Array.make n 0 }

let cell_add m a proc n =
  let c = Topology.ssmp_of_proc m.topo proc in
  a.(c) <- a.(c) + n

(* Acquire-side entry shared by every algorithm: charge the local
   acquire cost, count the episode, and open the transaction root that
   the algorithm's messages will inherit. *)
let enter_acquire m st (ctx : Mgs.Api.ctx) ~home_proc =
  let cpu = ctx.cpu in
  Cpu.sync_busy cpu;
  Cpu.advance cpu Lock m.costs.sync.lock_local_acquire;
  count m Mgs.Pstats.lock_acquires 1;
  cell_add m st.acquires ctx.Mgs.Api.proc 1;
  let root =
    span_open m ~parent:Span.none ~label:"sync.lock" ~engine:Mgs_obs.Event.Sync
      ~src:ctx.Mgs.Api.proc ~dst:home_proc ()
  in
  span_set m root;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.lock_acquire" ~src:ctx.Mgs.Api.proc
    ~dst:home_proc ~cost:0 ~vpn:(-1) ~words:0 ~dur:0;
  root

let exit_acquire m st root ~hit ~notices ~proc =
  if hit then begin
    count m Mgs.Pstats.lock_hits 1;
    cell_add m st.hits proc 1
  end;
  Mgs.Protocol.at_acquire m ~proc ~notices;
  span_close m root;
  span_set m Span.none

(* Release-side entry: flush per release consistency (this is what
   dilates critical sections), then charge the local release cost. *)
let enter_release m (ctx : Mgs.Api.ctx) ~home_proc ~notices =
  let cpu = ctx.cpu in
  Cpu.sync_busy cpu;
  let root =
    span_open m ~parent:Span.none ~label:"sync.unlock" ~engine:Mgs_obs.Event.Sync
      ~src:ctx.Mgs.Api.proc ~dst:home_proc ()
  in
  span_set m root;
  obs_emit m ~engine:Mgs_obs.Event.Sync ~tag:"sync.lock_release" ~src:ctx.Mgs.Api.proc
    ~dst:home_proc ~vpn:(-1) ~words:0 ~cost:0 ~dur:0;
  Mgs.Protocol.at_release m ~proc:ctx.Mgs.Api.proc ~notices;
  span_set m root;
  Cpu.advance cpu Lock m.costs.sync.lock_local_release;
  root

let exit_release m root =
  span_close m root;
  span_set m Span.none

let home_local m ~home_proc proc =
  Topology.ssmp_of_proc m.topo proc = Topology.ssmp_of_proc m.topo home_proc

(* Block the calling fiber in [wait], counted as one of its SSMP's
   waiters meanwhile, then charge the blocked time to the Lock bucket
   and restore the acquire's span. *)
let blocked_wait m st (ctx : Mgs.Api.ctx) root wait =
  cell_add m st.blocked ctx.Mgs.Api.proc 1;
  wait ();
  cell_add m st.blocked ctx.Mgs.Api.proc (-1);
  Cpu.resume_charge ctx.cpu Lock (Sim.now m.sim);
  span_set m root

(* The algorithm face over one instance: the counters read its cells,
   and a reset zeroes them along with the algorithm's own state. *)
let raw_of st ~acquire ~release ~reset =
  let sum = Array.fold_left ( + ) 0 in
  let zero a = Array.fill a 0 (Array.length a) 0 in
  {
    r_acquire = acquire;
    r_release = release;
    r_acquires = (fun () -> sum st.acquires);
    r_hits = (fun () -> sum st.hits);
    r_waiters = (fun () -> sum st.blocked);
    r_waiters_cell = (fun c -> st.blocked.(c));
    r_reset =
      (fun () ->
        zero st.acquires;
        zero st.hits;
        zero st.blocked;
        reset ());
  }

(* --- test-and-set with exponential backoff ------------------------- *)

(* The simplest contender: fire a TAS message at the home, and on
   failure sleep for an exponentially growing (capped) interval before
   trying again.  No queue, no fairness — the point of comparison for
   the queue locks below. *)
module Tas = struct
  type t = {
    m : Mgs.State.t;
    home : int;
    mutable held : bool;
    notices : (int, int) Hashtbl.t;
    st : cells;
  }

  let create (m : Mgs.Machine.t) ~home =
    {
      m;
      home = Topology.first_proc_of_ssmp m.topo home;
      held = false;
      notices = Hashtbl.create 16;
      st = cells m;
    }

  (* Backoff base ~ one LAN round trip; capped so a long wait never
     over-sleeps past a free lock by more than the cap. *)
  let backoff m attempt =
    let base = max 1 (2 * m.costs.lan.latency) in
    base lsl min (attempt - 1) 5

  let acquire (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    let cpu = ctx.cpu in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire m l.st ctx ~home_proc:l.home in
    let attempt = ref 0 in
    let won = ref false in
    while not !won do
      incr attempt;
      Cpu.advance cpu Lock m.costs.proto.msg_send;
      msg m;
      let q, wake = parker m in
      let granted = ref false in
      Am.post m.am ~tag:"TAS" ~src:proc ~dst:l.home ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t ->
          if not l.held then begin
            l.held <- true;
            granted := true
          end;
          msg m;
          Am.post m.am ~tag:"TAS_ACK" ~src:l.home ~dst:proc ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t -> wake ()));
      blocked_wait m l.st ctx root (fun () -> Mgs_engine.Waitq.park q);
      if !granted then won := true
      else
        (* back off in simulated time, charged to the Lock bucket *)
        blocked_wait m l.st ctx root (fun () ->
            Mgs_engine.Fiber.sleep_until m.sim (Sim.now m.sim + backoff m !attempt))
    done;
    let hit = !attempt = 1 && home_local m ~home_proc:l.home proc in
    exit_acquire m l.st root ~hit ~notices:l.notices ~proc

  let release (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    if not l.held then failwith "Locks(tas): release of a free lock";
    let root = enter_release m ctx ~home_proc:l.home ~notices:l.notices in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    Am.post m.am ~tag:"TAS_REL" ~src:ctx.Mgs.Api.proc ~dst:l.home ~words:0
      ~cost:m.costs.sync.lock_local_release (fun _t -> l.held <- false);
    exit_release m root

  let reset l =
    l.held <- false;
    Hashtbl.reset l.notices

  let impl m ~home =
    let l = create m ~home in
    raw_of l.st
      ~acquire:(fun ctx -> acquire ctx l)
      ~release:(fun ctx -> release ctx l)
      ~reset:(fun () -> reset l)
end

(* --- ticket lock ---------------------------------------------------- *)

(* Centralised FIFO: the home hands out tickets and notifies the next
   ticket holder on every release.  Two message hops per handoff
   (holder -> home -> next), perfectly fair. *)
module Ticket = struct
  type t = {
    m : Mgs.State.t;
    home : int;
    mutable next_ticket : int;
    mutable now_serving : int;
    waiting : (int, unit -> unit) Hashtbl.t; (* ticket -> grant *)
    mutable held : bool;
    notices : (int, int) Hashtbl.t;
    st : cells;
  }

  let create (m : Mgs.Machine.t) ~home =
    {
      m;
      home = Topology.first_proc_of_ssmp m.topo home;
      next_ticket = 0;
      now_serving = 0;
      waiting = Hashtbl.create 64;
      held = false;
      notices = Hashtbl.create 16;
      st = cells m;
    }

  let acquire (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    let cpu = ctx.cpu in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire m l.st ctx ~home_proc:l.home in
    Cpu.advance cpu Lock m.costs.proto.msg_send;
    msg m;
    let q, wake = parker m in
    let immediate = ref false in
    let grant () =
      msg m;
      Am.post m.am ~tag:"TKT_GRANT" ~src:l.home ~dst:proc ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t ->
          l.held <- true;
          wake ())
    in
    Am.post m.am ~tag:"TKT_REQ" ~src:proc ~dst:l.home ~words:0
      ~cost:m.costs.sync.lock_local_acquire (fun _t ->
        let ticket = l.next_ticket in
        l.next_ticket <- ticket + 1;
        if ticket = l.now_serving then begin
          immediate := true;
          grant ()
        end
        else Hashtbl.replace l.waiting ticket grant);
    blocked_wait m l.st ctx root (fun () -> Mgs_engine.Waitq.park q);
    let hit = !immediate && home_local m ~home_proc:l.home proc in
    exit_acquire m l.st root ~hit ~notices:l.notices ~proc

  let release (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    if not l.held then failwith "Locks(ticket): release of a free lock";
    l.held <- false;
    let root = enter_release m ctx ~home_proc:l.home ~notices:l.notices in
    Cpu.advance ctx.cpu Lock m.costs.proto.msg_send;
    msg m;
    Am.post m.am ~tag:"TKT_REL" ~src:ctx.Mgs.Api.proc ~dst:l.home ~words:0
      ~cost:m.costs.sync.lock_local_release (fun _t ->
        l.now_serving <- l.now_serving + 1;
        match Hashtbl.find_opt l.waiting l.now_serving with
        | Some grant ->
          Hashtbl.remove l.waiting l.now_serving;
          grant ()
        | None -> ());
    exit_release m root

  let reset l =
    l.next_ticket <- 0;
    l.now_serving <- 0;
    Hashtbl.reset l.waiting;
    l.held <- false;
    Hashtbl.reset l.notices

  let impl m ~home =
    let l = create m ~home in
    raw_of l.st
      ~acquire:(fun ctx -> acquire ctx l)
      ~release:(fun ctx -> release ctx l)
      ~reset:(fun () -> reset l)
end

(* --- MCS queue lock ------------------------------------------------- *)

(* Distributed FIFO queue: a SWAP at the home appends the requester to
   the queue; the home LINKs it to its predecessor, and the predecessor
   hands the lock off {e directly} to its successor on release — one
   hop per handoff, independent of contention.  A releaser that finds
   no successor asks the home; if a successor swapped in but its LINK
   has not landed yet (the MCS "CAS failed" window), the release parks
   until the link arrives. *)
module Mcs = struct
  type node = {
    owner : int; (* proc waiting on (or holding via) this node *)
    mutable next : int option; (* successor node id, once linked *)
    wake : unit -> unit; (* resume the owner's parked fiber *)
    mutable rel_parked : (unit -> unit) option; (* release awaiting link *)
  }

  type t = {
    m : Mgs.State.t;
    home : int;
    nodes : (int, node) Hashtbl.t;
    nodes_mu : Mutex.t;
        (* the table structure is touched from the requester's, the
           home's, and the successor's shards; individual node fields
           stay unguarded — they are only accessed from the owning
           processor's shard or with message-enforced ordering *)
    mutable tail : int option; (* home's view of the queue tail *)
    mint : int array; (* per-proc node-id counters; ids = proc + nprocs*k *)
    mutable holder : int; (* node id of the current holder, -1 if free *)
    notices : (int, int) Hashtbl.t;
    st : cells;
  }

  let create (m : Mgs.Machine.t) ~home =
    {
      m;
      home = Topology.first_proc_of_ssmp m.topo home;
      nodes = Hashtbl.create 64;
      nodes_mu = Mutex.create ();
      tail = None;
      mint = Array.make m.topo.Topology.nprocs 0;
      holder = -1;
      notices = Hashtbl.create 16;
      st = cells m;
    }

  let with_nodes l f =
    Mutex.lock l.nodes_mu;
    match f () with
    | r ->
      Mutex.unlock l.nodes_mu;
      r
    | exception e ->
      Mutex.unlock l.nodes_mu;
      raise e

  (* Deterministic node IDs without a shared counter: each processor
     mints from its own stripe, so concurrent acquires on different
     shards allocate the same IDs at every job count. *)
  let mint_id l proc =
    let k = l.mint.(proc) in
    l.mint.(proc) <- k + 1;
    proc + (Array.length l.mint * k)

  let acquire (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    let cpu = ctx.cpu in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire m l.st ctx ~home_proc:l.home in
    let me = mint_id l proc in
    let q, wake = parker m in
    let node = { owner = proc; next = None; wake; rel_parked = None } in
    with_nodes l (fun () -> Hashtbl.replace l.nodes me node);
    Cpu.advance cpu Lock m.costs.proto.msg_send;
    msg m;
    let free = ref false in
    Am.post m.am ~tag:"MCS_SWAP" ~src:proc ~dst:l.home ~words:0
      ~cost:m.costs.sync.lock_local_acquire (fun _t ->
        let prev = l.tail in
        l.tail <- Some me;
        match prev with
        | None ->
          free := true;
          msg m;
          Am.post m.am ~tag:"MCS_GRANT" ~src:l.home ~dst:proc ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t -> wake ())
        | Some pred_id ->
          let pred = with_nodes l (fun () -> Hashtbl.find l.nodes pred_id) in
          msg m;
          Am.post m.am ~tag:"MCS_LINK" ~src:l.home ~dst:pred.owner ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t ->
              pred.next <- Some me;
              match pred.rel_parked with
              | Some k ->
                pred.rel_parked <- None;
                k ()
              | None -> ()));
    blocked_wait m l.st ctx root (fun () -> Mgs_engine.Waitq.park q);
    l.holder <- me;
    let hit = !free && home_local m ~home_proc:l.home proc in
    exit_acquire m l.st root ~hit ~notices:l.notices ~proc

  let release (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    let cpu = ctx.cpu in
    let proc = ctx.Mgs.Api.proc in
    if l.holder < 0 then failwith "Locks(mcs): release of a free lock";
    let me = l.holder in
    l.holder <- -1;
    let node = with_nodes l (fun () -> Hashtbl.find l.nodes me) in
    let root = enter_release m ctx ~home_proc:l.home ~notices:l.notices in
    (* Direct handoff: one message from the old holder to the new. *)
    let handoff succ_id =
      let succ = with_nodes l (fun () -> Hashtbl.find l.nodes succ_id) in
      msg m;
      Am.post m.am ~tag:"MCS_HANDOFF" ~src:proc ~dst:succ.owner ~words:0
        ~cost:m.costs.sync.lock_local_acquire (fun _t ->
          with_nodes l (fun () -> Hashtbl.remove l.nodes me);
          succ.wake ())
    in
    Cpu.advance cpu Lock m.costs.proto.msg_send;
    (match node.next with
    | Some succ_id -> handoff succ_id
    | None ->
      (* No known successor: swap the tail back at the home. *)
      msg m;
      let q, wake = parker m in
      Am.post m.am ~tag:"MCS_SWAPREL" ~src:proc ~dst:l.home ~words:0
        ~cost:m.costs.sync.lock_local_release (fun _t ->
          if l.tail = Some me then begin
            l.tail <- None;
            msg m;
            Am.post m.am ~tag:"MCS_RELOK" ~src:l.home ~dst:proc ~words:0
              ~cost:m.costs.sync.lock_local_release (fun _t ->
                with_nodes l (fun () -> Hashtbl.remove l.nodes me);
                wake ())
          end
          else begin
            (* Someone swapped in behind us; wait for their LINK. *)
            msg m;
            Am.post m.am ~tag:"MCS_RELWAIT" ~src:l.home ~dst:proc ~words:0
              ~cost:m.costs.sync.lock_local_release (fun _t ->
                match node.next with
                | Some succ_id ->
                  handoff succ_id;
                  wake ()
                | None ->
                  node.rel_parked <-
                    Some
                      (fun () ->
                        (match node.next with
                        | Some succ_id -> handoff succ_id
                        | None -> assert false);
                        wake ()))
          end);
      blocked_wait m l.st ctx root (fun () -> Mgs_engine.Waitq.park q));
    exit_release m root

  let reset l =
    with_nodes l (fun () -> Hashtbl.reset l.nodes);
    l.tail <- None;
    Array.fill l.mint 0 (Array.length l.mint) 0;
    l.holder <- -1;
    Hashtbl.reset l.notices

  let impl m ~home =
    let l = create m ~home in
    raw_of l.st
      ~acquire:(fun ctx -> acquire ctx l)
      ~release:(fun ctx -> release ctx l)
      ~reset:(fun () -> reset l)
end

(* --- CLH queue lock ------------------------------------------------- *)

(* Implicit queue through predecessor nodes: a SWAP at the home returns
   the predecessor's node; the requester WATCHes that node where it
   lives, and the predecessor's release grants the watcher directly.
   Unlike MCS the release never blocks — the released node persists
   until its successor consumes it, so a late WATCH simply finds
   [released] already set.  Nodes are keyed by a per-lock sequence so a
   processor can have one node per outstanding acquire. *)
module Clh = struct
  type node = {
    owner : int; (* proc whose SSMP hosts this node *)
    mutable released : bool;
    mutable watcher : (unit -> unit) option; (* successor's grant *)
  }

  type t = {
    m : Mgs.State.t;
    home : int;
    nodes : (int, node) Hashtbl.t;
    nodes_mu : Mutex.t; (* same discipline as MCS: guard the table, not fields *)
    mutable tail : int; (* node id *)
    mint : int array; (* per-proc counters; ids = 1 + proc + nprocs*k *)
    mutable holder : int; (* node id of the current holder, -1 if free *)
    notices : (int, int) Hashtbl.t;
    st : cells;
  }

  let with_nodes l f =
    Mutex.lock l.nodes_mu;
    match f () with
    | r ->
      Mutex.unlock l.nodes_mu;
      r
    | exception e ->
      Mutex.unlock l.nodes_mu;
      raise e

  let init l home_proc =
    with_nodes l (fun () ->
        Hashtbl.reset l.nodes;
        (* sentinel: an already-released node owned by the home *)
        Hashtbl.replace l.nodes 0 { owner = home_proc; released = true; watcher = None });
    l.tail <- 0;
    Array.fill l.mint 0 (Array.length l.mint) 0;
    l.holder <- -1

  let create (m : Mgs.Machine.t) ~home =
    let home_proc = Topology.first_proc_of_ssmp m.topo home in
    let l =
      {
        m;
        home = home_proc;
        nodes = Hashtbl.create 64;
        nodes_mu = Mutex.create ();
        tail = 0;
        mint = Array.make m.topo.Topology.nprocs 0;
        holder = -1;
        notices = Hashtbl.create 16;
        st = cells m;
      }
    in
    init l home_proc;
    l

  (* per-proc minting, offset past the sentinel's id 0 *)
  let mint_id l proc =
    let k = l.mint.(proc) in
    l.mint.(proc) <- k + 1;
    1 + proc + (Array.length l.mint * k)

  let acquire (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    let cpu = ctx.cpu in
    let proc = ctx.Mgs.Api.proc in
    let root = enter_acquire m l.st ctx ~home_proc:l.home in
    let me = mint_id l proc in
    with_nodes l (fun () ->
        Hashtbl.replace l.nodes me { owner = proc; released = false; watcher = None });
    let q, wake = parker m in
    Cpu.advance cpu Lock m.costs.proto.msg_send;
    msg m;
    let free = ref false in
    Am.post m.am ~tag:"CLH_SWAP" ~src:proc ~dst:l.home ~words:0
      ~cost:m.costs.sync.lock_local_acquire (fun _t ->
        let prev = l.tail in
        l.tail <- me;
        let pred = with_nodes l (fun () -> Hashtbl.find l.nodes prev) in
        let grant () =
          with_nodes l (fun () -> Hashtbl.remove l.nodes prev);
          msg m;
          Am.post m.am ~tag:"CLH_GRANT" ~src:pred.owner ~dst:proc ~words:0
            ~cost:m.costs.sync.lock_local_acquire (fun _t -> wake ())
        in
        (* watch the predecessor's node where it lives *)
        msg m;
        Am.post m.am ~tag:"CLH_WATCH" ~src:l.home ~dst:pred.owner ~words:0
          ~cost:m.costs.sync.lock_local_acquire (fun _t ->
            if pred.released then begin
              free := true;
              grant ()
            end
            else pred.watcher <- Some grant));
    blocked_wait m l.st ctx root (fun () -> Mgs_engine.Waitq.park q);
    l.holder <- me;
    let hit = !free && home_local m ~home_proc:l.home proc in
    exit_acquire m l.st root ~hit ~notices:l.notices ~proc

  let release (ctx : Mgs.Api.ctx) l =
    let m = l.m in
    if l.holder < 0 then failwith "Locks(clh): release of a free lock";
    let me = l.holder in
    l.holder <- -1;
    let node = with_nodes l (fun () -> Hashtbl.find l.nodes me) in
    let root = enter_release m ctx ~home_proc:l.home ~notices:l.notices in
    node.released <- true;
    (match node.watcher with
    | Some grant ->
      node.watcher <- None;
      grant ()
    | None -> ());
    exit_release m root

  let reset l =
    init l l.home;
    Hashtbl.reset l.notices

  let impl m ~home =
    let l = create m ~home in
    raw_of l.st
      ~acquire:(fun ctx -> acquire ctx l)
      ~release:(fun ctx -> release ctx l)
      ~reset:(fun () -> reset l)
end

(* --- the paper's token lock, unchanged ----------------------------- *)

let token_impl m ~home =
  let l = Lock.create m ~home () in
  {
    r_acquire = (fun ctx -> Lock.acquire ctx l);
    r_release = (fun ctx -> Lock.release ctx l);
    r_acquires = (fun () -> Lock.acquires l);
    r_hits = (fun () -> Lock.hits l);
    r_waiters = (fun () -> Lock.waiters l);
    r_waiters_cell = (fun c -> Lock.waiters_cell l c);
    r_reset = (fun () -> Lock.reset l);
  }

(* --- registry ------------------------------------------------------- *)

type maker = Mgs.Machine.t -> home:int -> raw

let registry : (string, maker) Hashtbl.t = Hashtbl.create 8

let register name maker =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Locks.register: %S already registered" name);
  Hashtbl.add registry name maker

let () =
  register "token" token_impl;
  register "tas" Tas.impl;
  register "ticket" Ticket.impl;
  register "mcs" Mcs.impl;
  register "clh" Clh.impl

let names () = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) registry [])

let mem name = Hashtbl.mem registry name

(* --- instrumented wrapper ------------------------------------------ *)

type t = {
  name : string;
  wm : Mgs.State.t;
  raw : raw;
  is_baseline : bool; (* token: keep legacy counters byte-identical *)
  mutable last_release : int; (* sim time of the last release, -1 *)
  mutable last_holder : int; (* proc of the last holder, -1 *)
  mutable handoffs : int;
  mutable gaps : int list; (* cross-holder handoff gaps, newest first *)
}

let wrapper_reset t =
  t.raw.r_reset ();
  t.last_release <- -1;
  t.last_holder <- -1;
  t.handoffs <- 0;
  t.gaps <- []

let make (m : Mgs.Machine.t) ?(home = 0) name =
  match Hashtbl.find_opt registry name with
  | None ->
    invalid_arg
      (Printf.sprintf "unknown lock %S (known: %s)" name (String.concat ", " (names ())))
  | Some maker ->
    let raw = maker m ~home in
    let t =
      {
        name;
        wm = m;
        raw;
        is_baseline = name = "token";
        last_release = -1;
        last_holder = -1;
        handoffs = 0;
        gaps = [];
      }
    in
    (* Phase resets ([Machine.reset_stats]) restore the lock through
       this hook; [assert_quiescent] and the [sync.lock_waiters] gauge
       read the waiter count. *)
    m.sync_hooks <-
      {
        sh_name = Printf.sprintf "lock:%s" name;
        sh_reset = (fun () -> wrapper_reset t);
        sh_waiters = raw.r_waiters;
        sh_waiters_cell = raw.r_waiters_cell;
      }
      :: m.sync_hooks;
    t

let acquire (ctx : Mgs.Api.ctx) t =
  let m = t.wm in
  let t0 = Sim.now m.sim in
  t.raw.r_acquire ctx;
  let t1 = Sim.now m.sim in
  let proc = ctx.Mgs.Api.proc in
  (* Host-side accounting only below this line: nothing here may post a
     message, charge a cpu, or schedule an event. *)
  if not t.is_baseline then
    count m Mgs.Pstats.lock_wait (t1 - t0);
  if t.last_holder >= 0 && t.last_holder <> proc then begin
    t.handoffs <- t.handoffs + 1;
    if not t.is_baseline then
      count m Mgs.Pstats.lock_handoffs 1;
    if t.last_release >= 0 && t1 >= t.last_release then begin
      t.gaps <- (t1 - t.last_release) :: t.gaps;
      (* Retroactive handoff span: the lock was in flight from the
         previous holder's release until this acquire completed. *)
      match m.obs with
      | None -> ()
      | Some tr ->
        let sp = Mgs_obs.Trace.spans tr in
        let c =
          Span.open_span sp ~parent:Span.none ~time:t.last_release ~label:"lock.handoff"
            ~engine:Mgs_obs.Event.Sync ~src:t.last_holder ~dst:proc
            ~src_ssmp:(Topology.ssmp_of_proc m.topo t.last_holder)
            ~dst_ssmp:(Topology.ssmp_of_proc m.topo proc) ()
        in
        Span.close sp c ~time:t1
    end
  end;
  t.last_holder <- proc

let release (ctx : Mgs.Api.ctx) t =
  t.raw.r_release ctx;
  t.last_release <- Sim.now t.wm.sim

let name t = t.name

let acquires t = t.raw.r_acquires ()

let hits t = t.raw.r_hits ()

let hit_ratio t =
  let a = acquires t in
  if a = 0 then 1.0 else float_of_int (hits t) /. float_of_int a

let waiters t = t.raw.r_waiters ()

let reset t = wrapper_reset t

let handoffs t = t.handoffs

let gaps t = Array.of_list (List.rev t.gaps)

(* --- handoff-gap statistics ---------------------------------------- *)

type gap_stats = { n : int; mean : float; max : int; cv : float }

let gap_stats t =
  match t.gaps with
  | [] -> { n = 0; mean = 0.; max = 0; cv = 0. }
  | gs ->
    let n = List.length gs in
    let fn = float_of_int n in
    let sum = List.fold_left ( + ) 0 gs in
    let mean = float_of_int sum /. fn in
    let max_g = List.fold_left max 0 gs in
    let var =
      List.fold_left
        (fun acc g ->
          let d = float_of_int g -. mean in
          acc +. (d *. d))
        0. gs
      /. fn
    in
    let cv = if mean > 0. then sqrt var /. mean else 0. in
    { n; mean; max = max_g; cv }
