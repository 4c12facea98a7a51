type stats = {
  mutable messages : int;
  mutable data_words : int;
  mutable retransmits : int;
  mutable dup_drops : int;
  mutable timeouts : int;
  mutable acks : int;
}

type partition = {
  part_src_ssmp : int;
  part_dst_ssmp : int;
  part_tag : string;
  part_retries : int;
}

exception Net_partition of partition

(* Sender-side record of one logical message awaiting its ack.  The
   whole machine lives in one simulator process, so the receiver finds
   the payload (and continuation) through this record rather than
   marshalling anything. *)
type pending = {
  penv : Envelope.t;
  pk : Mgs_engine.Sim.time -> unit;
  pseq : int;
  pchan : int;
  post_at : Mgs_engine.Sim.time;  (* when the protocol layer posted it *)
  pctx : Mgs_obs.Span.ctx;  (* ambient span at post, for retry spans *)
  mutable retries : int;
  mutable cur_rto : int;
}

(* Reliable-transport state, allocated only when a fault plan is
   installed; without one, [send] never touches any of this and the run
   is byte-identical to a faults-free build. *)
type rel = {
  plan : Fault.plan;
  next_seq : int array;  (* per channel: next sequence number to send *)
  unacked : (int, pending) Hashtbl.t array;  (* per channel, keyed by seq *)
  next_deliver : int array;  (* per channel: receiver's in-order cursor *)
  parked : (int, pending) Hashtbl.t array;  (* arrived out of order *)
}

type t = {
  sim : Mgs_engine.Sim.t;
  costs : Mgs_machine.Costs.t;
  nssmps : int;
  sender_free : Mgs_engine.Sim.time array; (* per-SSMP sender availability *)
  last_arrival : Mgs_engine.Sim.time array; (* FIFO watermark, src*nssmps+dst *)
  cells : stats array;
      (* per-SSMP counter cells: each counter is bumped at the endpoint
         whose shard executes the bump (messages/retransmits/timeouts at
         the sender, acks/dup_drops at the receiver), so concurrent
         shards never write one cell.  {!stats} merges them. *)
  mutable obs : Mgs_obs.Trace.t option;
  mutable rel : rel option;
}

let fresh_stats () =
  { messages = 0; data_words = 0; retransmits = 0; dup_drops = 0; timeouts = 0; acks = 0 }

let create sim costs ~nssmps =
  if nssmps <= 0 then invalid_arg "Lan.create: nssmps";
  {
    sim;
    costs;
    nssmps;
    sender_free = Array.make nssmps 0;
    last_arrival = Array.make (nssmps * nssmps) 0;
    cells = Array.init nssmps (fun _ -> fresh_stats ());
    obs = None;
    rel = None;
  }

(* Delivery on each (src, dst) channel is FIFO: a short message sent
   after a bulk one must not overtake it (the emulated LAN queues at the
   sender and has a fixed latency, so ordering is inherent).  The
   watermarks live in a flat nssmps x nssmps matrix — this runs per
   message and must not allocate a key tuple. *)
let fifo_arrival lan ~src ~dst raw =
  let key = (src * lan.nssmps) + dst in
  let arrive = max raw lan.last_arrival.(key) in
  lan.last_arrival.(key) <- arrive;
  arrive

let emit_delivery lan ~src ~dst ~src_ssmp ~dst_ssmp ~words ~post_at ~arrive =
  match lan.obs with
  | Some tr ->
    Mgs_obs.Trace.emit tr ~time:arrive ~engine:Mgs_obs.Event.Network ~tag:"LAN" ~vpn:(-1) ~src
      ~dst ~src_ssmp ~dst_ssmp ~words ~cost:0 ~dur:(arrive - post_at)
      ~txn:(Mgs_obs.Span.txn_of (Mgs_obs.Span.current (Mgs_obs.Trace.spans tr)))
  | None -> ()

(* --- reliable transport (fault plan installed) ---------------------- *)

(* Retransmission backoff doubles per retry, clamped so high retry
   budgets cannot overflow: unclamped, [rto * 2^retries] wraps negative
   after ~60 doublings, and a negative timeout fires "in the past" —
   the simulator clamps it to now, collapsing the backoff into a
   retransmission storm that burns the whole retry budget in one
   instant.  The cap (2^40 cycles, ~12 simulated days at 1 GHz) is far
   beyond any plausible round trip yet leaves fifteen more doublings of
   headroom before the integer edge, so the schedule stays monotone
   non-decreasing for any retry count. *)
let rto_cap = 1 lsl 40

let next_rto cur = if cur >= rto_cap / 2 then rto_cap else cur * 2

(* Degraded SSMPs slow both their sender and their receiver side; a
   transfer pays the worse of the two endpoints' factors. *)
let scaled factor c = if factor = 1.0 then c else int_of_float (ceil (float_of_int c *. factor))

let slow_of rel ~src ~dst =
  let f = Fault.slowdown rel.plan src and g = Fault.slowdown rel.plan dst in
  if f > g then f else g

(* Worst plausible round trip for this payload; the initial timeout must
   comfortably exceed it or healthy channels retransmit spuriously
   (harmless — the receiver dedups — but noisy). *)
let auto_rto lan rel (env : Envelope.t) =
  let p = lan.costs.Mgs_machine.Costs.proto in
  let l = lan.costs.Mgs_machine.Costs.lan in
  let spec = Fault.spec_of rel.plan in
  let slow = slow_of rel ~src:env.src_ssmp ~dst:env.dst_ssmp in
  let one_way = scaled slow l.latency + (env.words * p.dma_per_word) + spec.delay_max in
  (3 * one_way) + (4 * l.send_occupancy)

let deliver lan rel pend now =
  let chan = pend.pchan in
  rel.next_deliver.(chan) <- pend.pseq + 1;
  let env = pend.penv in
  emit_delivery lan ~src:env.src ~dst:env.dst ~src_ssmp:env.src_ssmp ~dst_ssmp:env.dst_ssmp
    ~words:env.words ~post_at:pend.post_at ~arrive:now;
  pend.pk now

let ack_arrived rel ~chan ~seq =
  match Hashtbl.find_opt rel.unacked.(chan) seq with
  | Some _ -> Hashtbl.remove rel.unacked.(chan) seq
  | None -> ()

(* Acknowledgement: a small control message back to the sender.  It
   pays the (slowdown-scaled) wire latency and can itself be lost, but
   carries no payload and does not compete for sender occupancy — the
   emulated LAN's control traffic rides for free, like the forward
   path's fixed latency. *)
let send_ack lan rel ~chan ~seq ~src ~dst now =
  let c = lan.cells.(dst) in
  c.acks <- c.acks + 1;
  let spec = Fault.spec_of rel.plan in
  (* the ack direction owns its own stream: this draw happens on the
     receiver's shard, the forward draws on the sender's *)
  let g = Fault.ack_rng rel.plan ~src ~dst in
  let lost = Fault.flip g spec.drop in
  if not lost then begin
    let l = lan.costs.Mgs_machine.Costs.lan in
    let arrive = now + scaled (slow_of rel ~src ~dst) l.latency in
    (* the ack lands back on the sender's shard: [unacked] is sender
       state *)
    Mgs_engine.Sim.at_shard lan.sim ~shard:src arrive (fun () -> ack_arrived rel ~chan ~seq)
  end

let on_arrival lan rel pend now =
  let chan = pend.pchan in
  let env = pend.penv in
  let src = env.Envelope.src_ssmp and dst = env.Envelope.dst_ssmp in
  if pend.pseq < rel.next_deliver.(chan) || Hashtbl.mem rel.parked.(chan) pend.pseq then begin
    (* already delivered or already waiting: a duplicate (wire dup or a
       retransmission racing its original).  Drop it, but re-ack — the
       first ack may have been the casualty. *)
    let c = lan.cells.(dst) in
    c.dup_drops <- c.dup_drops + 1;
    send_ack lan rel ~chan ~seq:pend.pseq ~src ~dst now
  end
  else begin
    Hashtbl.replace rel.parked.(chan) pend.pseq pend;
    send_ack lan rel ~chan ~seq:pend.pseq ~src ~dst now;
    (* Deliver every consecutive message now available, in order. *)
    let rec drain () =
      match Hashtbl.find_opt rel.parked.(chan) rel.next_deliver.(chan) with
      | Some ready ->
        Hashtbl.remove rel.parked.(chan) ready.pseq;
        deliver lan rel ready now;
        drain ()
      | None -> ()
    in
    drain ()
  end

let emit_retry lan pend now =
  match lan.obs with
  | Some tr ->
    let env = pend.penv in
    Mgs_obs.Trace.emit tr ~time:now ~engine:Mgs_obs.Event.Network ~tag:"NET.RETRY" ~vpn:(-1)
      ~src:env.src ~dst:env.dst ~src_ssmp:env.src_ssmp ~dst_ssmp:env.dst_ssmp
      ~words:env.words ~cost:0 ~dur:0 ~txn:(Mgs_obs.Span.txn_of pend.pctx);
    let sp = Mgs_obs.Trace.spans tr in
    let ctx =
      Mgs_obs.Span.open_span_x sp ~parent:pend.pctx ~time:now ~label:"net.retry"
        ~engine:Mgs_obs.Event.Network ~vpn:(-1) ~src:env.src ~dst:env.dst
        ~src_ssmp:env.src_ssmp ~dst_ssmp:env.dst_ssmp ~words:env.words
    in
    Mgs_obs.Span.close sp ctx ~time:now
  | None -> ()

(* One transmission attempt: pay sender occupancy, draw this attempt's
   fate from the channel's own stream (a fixed number of draws whatever
   the probabilities, so rate changes never shift later draws), schedule
   the surviving copies, and arm the retransmission timer. *)
let rec transmit lan rel pend ~at =
  let p = lan.costs.Mgs_machine.Costs.proto in
  let l = lan.costs.Mgs_machine.Costs.lan in
  let env = pend.penv in
  let src = env.Envelope.src_ssmp and dst = env.Envelope.dst_ssmp in
  let spec = Fault.spec_of rel.plan in
  let g = Fault.chan_rng rel.plan ~src ~dst in
  let slow = slow_of rel ~src ~dst in
  let depart = max at lan.sender_free.(src) in
  lan.sender_free.(src) <- depart + scaled slow l.send_occupancy;
  let dropped = Fault.flip g spec.drop in
  let dupped = Fault.flip g spec.dup in
  let reordered = Fault.flip g spec.reorder in
  let extra = Fault.extra_delay g spec in
  let raw = depart + scaled slow l.latency + (env.words * p.dma_per_word) + extra in
  (* A reorder fault lets this copy overtake earlier traffic: it skips
     the FIFO clamp (and leaves the watermark alone, so it cannot hold
     later messages back either). *)
  let arrive = if reordered then raw else fifo_arrival lan ~src ~dst raw in
  if not dropped then
    Mgs_engine.Sim.at_shard lan.sim ~shard:dst arrive (fun () -> on_arrival lan rel pend arrive);
  if dupped then begin
    (* The wire delivered a second copy just behind the first; it skips
       the FIFO clamp so it cannot delay legitimate traffic. *)
    let darrive = raw + 1 in
    Mgs_engine.Sim.at_shard lan.sim ~shard:dst darrive (fun () -> on_arrival lan rel pend darrive)
  end;
  (* the retransmission timer stays on the sender's shard *)
  let fire = depart + pend.cur_rto in
  Mgs_engine.Sim.at lan.sim fire (fun () -> on_timeout lan rel pend fire)

and on_timeout lan rel pend now =
  if Hashtbl.mem rel.unacked.(pend.pchan) pend.pseq then begin
    (* still unacked: the message (or its ack) is lost or very late *)
    let c = lan.cells.(pend.penv.Envelope.src_ssmp) in
    c.timeouts <- c.timeouts + 1;
    let spec = Fault.spec_of rel.plan in
    if pend.retries >= spec.max_retries then
      raise
        (Net_partition
           {
             part_src_ssmp = pend.penv.Envelope.src_ssmp;
             part_dst_ssmp = pend.penv.Envelope.dst_ssmp;
             part_tag = pend.penv.Envelope.tag;
             part_retries = pend.retries;
           })
    else begin
      pend.retries <- pend.retries + 1;
      pend.cur_rto <- next_rto pend.cur_rto;
      let c = lan.cells.(pend.penv.Envelope.src_ssmp) in
      c.retransmits <- c.retransmits + 1;
      emit_retry lan pend now;
      transmit lan rel pend ~at:now
    end
  end

let send_reliable lan rel (env : Envelope.t) ~at k =
  let chan = (env.src_ssmp * lan.nssmps) + env.dst_ssmp in
  let seq = rel.next_seq.(chan) in
  rel.next_seq.(chan) <- seq + 1;
  let c = lan.cells.(env.src_ssmp) in
  c.messages <- c.messages + 1;
  c.data_words <- c.data_words + env.words;
  let pctx =
    match lan.obs with
    | Some tr -> Mgs_obs.Span.current (Mgs_obs.Trace.spans tr)
    | None -> Mgs_obs.Span.none
  in
  let pend =
    { penv = env; pk = k; pseq = seq; pchan = chan; post_at = at; pctx; retries = 0; cur_rto = 0 }
  in
  let spec = Fault.spec_of rel.plan in
  pend.cur_rto <- min rto_cap (if spec.rto > 0 then spec.rto else auto_rto lan rel env);
  Hashtbl.replace rel.unacked.(chan) seq pend;
  transmit lan rel pend ~at

(* --- the one entry point ------------------------------------------- *)

(* On the perfect wire the arrival event runs [k] itself; an
   [Envelope.t] is built only for the fault path's [pending] record. *)
let post lan ~tag ~src ~dst ~src_ssmp ~dst_ssmp ~words ~at k =
  let p = lan.costs.Mgs_machine.Costs.proto in
  let l = lan.costs.Mgs_machine.Costs.lan in
  if src_ssmp = dst_ssmp then begin
    (* Intra-SSMP protocol message: fast Alewife messaging, no LAN —
       and no faults; the shared bus does not lose messages. *)
    let arrive =
      fifo_arrival lan ~src:src_ssmp ~dst:dst_ssmp (at + p.intra_msg + (words * p.dma_per_word))
    in
    Mgs_engine.Sim.at_k lan.sim arrive k
  end
  else
    match lan.rel with
    | Some rel ->
      send_reliable lan rel { Envelope.tag; src; dst; src_ssmp; dst_ssmp; words; cost = 0 } ~at k
    | None ->
      let depart = max at lan.sender_free.(src_ssmp) in
      lan.sender_free.(src_ssmp) <- depart + l.send_occupancy;
      let arrive =
        fifo_arrival lan ~src:src_ssmp ~dst:dst_ssmp (depart + l.latency + (words * p.dma_per_word))
      in
      let c = lan.cells.(src_ssmp) in
      c.messages <- c.messages + 1;
      c.data_words <- c.data_words + words;
      emit_delivery lan ~src ~dst ~src_ssmp ~dst_ssmp ~words ~post_at:at ~arrive;
      Mgs_engine.Sim.at_shard_k lan.sim ~shard:dst_ssmp arrive k

let send lan (env : Envelope.t) ~at k =
  post lan ~tag:env.tag ~src:env.src ~dst:env.dst ~src_ssmp:env.src_ssmp ~dst_ssmp:env.dst_ssmp
    ~words:env.words ~at k

let stats lan =
  let t = fresh_stats () in
  Array.iter
    (fun c ->
      t.messages <- t.messages + c.messages;
      t.data_words <- t.data_words + c.data_words;
      t.retransmits <- t.retransmits + c.retransmits;
      t.dup_drops <- t.dup_drops + c.dup_drops;
      t.timeouts <- t.timeouts + c.timeouts;
      t.acks <- t.acks + c.acks)
    lan.cells;
  t

let cell lan c = lan.cells.(c)

let set_obs lan tr = lan.obs <- tr

let set_fault_plan lan plan =
  match plan with
  | None -> lan.rel <- None
  | Some plan ->
    let n = lan.nssmps * lan.nssmps in
    lan.rel <-
      Some
        {
          plan;
          next_seq = Array.make n 0;
          unacked = Array.init n (fun _ -> Hashtbl.create 16);
          next_deliver = Array.make n 0;
          parked = Array.init n (fun _ -> Hashtbl.create 16);
        }

let fault_plan lan =
  match lan.rel with
  | Some rel -> Some rel.plan
  | None -> None

let unacked lan =
  match lan.rel with
  | Some rel -> Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 rel.unacked
  | None -> 0

(* Channel [src * nssmps + dst]: SSMP [c]'s outgoing channels are one
   contiguous stripe. *)
let unacked_cell lan c =
  match lan.rel with
  | Some rel ->
    let n = ref 0 in
    for chan = c * lan.nssmps to ((c + 1) * lan.nssmps) - 1 do
      n := !n + Hashtbl.length rel.unacked.(chan)
    done;
    !n
  | None -> 0

let reset_stats lan =
  Array.iter
    (fun c ->
      c.messages <- 0;
      c.data_words <- 0;
      c.retransmits <- 0;
      c.dup_drops <- 0;
      c.timeouts <- 0;
      c.acks <- 0)
    lan.cells

(* Full reset between measured phases: beyond the counters, clear the
   sender-occupancy horizons and per-channel FIFO watermarks so warmup
   traffic cannot delay (and thus skew) the first measured messages.
   With a fault plan installed the retransmission state (sequence
   numbers, unacked and parked tables) and the fault schedule restart
   too — only safe when the network is quiescent, since an in-flight
   message's sequence number would collide with the restarted stream.
   Safe mid-run otherwise: departures and arrivals are clamped to [at],
   which is never in the past. *)
let reset lan =
  reset_stats lan;
  Array.fill lan.sender_free 0 (Array.length lan.sender_free) 0;
  Array.fill lan.last_arrival 0 (Array.length lan.last_arrival) 0;
  match lan.rel with
  | Some rel ->
    Array.fill rel.next_seq 0 (Array.length rel.next_seq) 0;
    Array.fill rel.next_deliver 0 (Array.length rel.next_deliver) 0;
    Array.iter Hashtbl.reset rel.unacked;
    Array.iter Hashtbl.reset rel.parked;
    Fault.reset rel.plan
  | None -> ()
