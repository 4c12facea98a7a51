module Span = Mgs_obs.Span

(* Tag-keyed tables hash and compare as strings: a generic table's
   polymorphic compare is a C call per probe. *)
module Tagtbl = Hashtbl.Make (String)

(* A tag's span labels and their engine classes: ["h." ^ tag] for a
   delivered message's handler, the bare tag for [run_on] work. *)
type hlabel = {
  h_label : string;
  h_engine : Mgs_obs.Event.engine;
  tag_engine : Mgs_obs.Event.engine;
}

(* Message counters live in per-SSMP cells so concurrent shards of the
   sharded engine never write the same slot: posting bumps the sender's
   cell, delivery decrements the receiver's in-flight cell, and the
   accessors sum.  (A cell can go negative in isolation; only the sum is
   meaningful.)  A tag's count is a ref, so a post hashes its tag once. *)
type t = {
  sim : Mgs_engine.Sim.t;
  costs : Mgs_machine.Costs.t;
  topo : Mgs_machine.Topology.t;
  lan : Mgs_net.Lan.t;
  cpus : Mgs_machine.Cpu.t array;
  counts : int ref Tagtbl.t array; (* per sender SSMP *)
  hlabels : hlabel Tagtbl.t array;
      (* per tag, interned per handling SSMP (the intern happens on the
         handler's shard) *)
  total : int array; (* per sender SSMP *)
  in_flight : int array; (* per SSMP: posted here minus delivered here *)
  mutable obs : Mgs_obs.Trace.t option;
}

(* A message's arrival at [dst]: its handler occupies [dst] for
   dispatch plus [cost]; returns the finish time. *)
let handle am ~dst ~cost arrive =
  let ssmp = Mgs_machine.Topology.ssmp_of_proc am.topo dst in
  am.in_flight.(ssmp) <- am.in_flight.(ssmp) - 1;
  Mgs_machine.Cpu.occupy am.cpus.(dst) ~at:arrive
    ~cost:(am.costs.Mgs_machine.Costs.proto.handler_dispatch + cost)

(* Untraced, a message event carries its handler's processor and cost
   in one word, [cost] above [dst_bits] bits of [dst], and the engine
   calls [handle] through the hook [create] installs. *)
let dst_bits = 20

let max_cost = max_int lsr dst_bits

let max_procs = 1 lsl dst_bits

let create sim costs topo ~lan ~cpus =
  if Array.length cpus <> topo.Mgs_machine.Topology.nprocs then
    invalid_arg "Am.create: cpu count mismatch";
  if topo.Mgs_machine.Topology.nprocs > max_procs then invalid_arg "Am.create: too many procs";
  let nssmps = topo.Mgs_machine.Topology.nssmps in
  let am =
    {
      sim;
      costs;
      topo;
      lan;
      cpus;
      counts = Array.init nssmps (fun _ -> Tagtbl.create 32);
      hlabels = Array.init nssmps (fun _ -> Tagtbl.create 32);
      total = Array.make nssmps 0;
      in_flight = Array.make nssmps 0;
      obs = None;
    }
  in
  let mask = (1 lsl dst_bits) - 1 in
  Mgs_engine.Sim.set_deliver sim (fun msg arrive ->
      handle am ~dst:(msg land mask) ~cost:(msg lsr dst_bits) arrive);
  am

let bump am ssmp tag =
  am.total.(ssmp) <- am.total.(ssmp) + 1;
  let counts = am.counts.(ssmp) in
  match Tagtbl.find counts tag with
  | n -> incr n
  | exception Not_found -> Tagtbl.add counts tag (ref 1)

(* The span labels for [tag], computed and classified once per distinct
   tag and handling SSMP: the tag set is small and fixed, and a fresh
   ["h." ^ tag] or a label classification per message is wasted work. *)
let hlabel am ssmp tag =
  let hlabels = am.hlabels.(ssmp) in
  match Tagtbl.find hlabels tag with
  | hl -> hl
  | exception Not_found ->
    let h_label = "h." ^ tag in
    let hl =
      {
        h_label;
        h_engine = Span.engine_of_label h_label;
        tag_engine = Span.engine_of_label tag;
      }
    in
    Tagtbl.add hlabels tag hl;
    hl

(* At [fin], close the handler's span [hctx] — only the one opened for
   it, never an aliased parent [pctx] — and run [k] under it. *)
let finish_traced am sp ~pctx ~hctx ~fin k =
  Mgs_engine.Sim.at am.sim fin (fun () ->
      if hctx <> pctx then Span.close sp hctx ~time:fin;
      let saved = Span.current sp in
      Span.set_current sp hctx;
      k fin;
      Span.set_current sp saved)

(* Traced, the ambient span context is captured when the message is
   posted and re-installed around the handler's continuation, so any
   message the handler posts in turn inherits the originating
   transaction.  The install/restore happens for every message — even a
   context-free one — so a stale context left by a suspending fiber can
   never leak into an unrelated handler. *)
let deliver_traced am tr ~tag ~src ~dst ~src_ssmp ~dst_ssmp ~words ~cost ~at k =
  let p = am.costs.Mgs_machine.Costs.proto in
  let pctx = Span.current (Mgs_obs.Trace.spans tr) in
  fun arrive ->
    let fin = handle am ~dst ~cost arrive in
    let txn = Span.txn_of pctx in
    Mgs_obs.Trace.emit tr ~time:arrive ~engine:Mgs_obs.Event.Network ~tag ~vpn:(-1) ~src
      ~dst ~src_ssmp ~dst_ssmp ~words ~cost ~dur:(arrive - at) ~txn;
    let sp = Mgs_obs.Trace.spans tr in
    let hctx =
      if txn < 0 then pctx
      else begin
        (* transit decomposes into wire time and, for bulk payloads,
           the trailing DMA burst *)
        let dma = words * p.dma_per_word in
        let wire_end = arrive - dma in
        let w =
          Span.open_span_x sp ~parent:pctx ~time:at ~label:"net.wire"
            ~engine:Mgs_obs.Event.Network ~vpn:(-1) ~src ~dst ~src_ssmp ~dst_ssmp ~words
        in
        Span.close sp w ~time:wire_end;
        if dma > 0 then begin
          let d =
            Span.open_span_x sp ~parent:pctx ~time:wire_end ~label:"net.dma"
              ~engine:Mgs_obs.Event.Network ~vpn:(-1) ~src ~dst ~src_ssmp ~dst_ssmp
              ~words
          in
          Span.close sp d ~time:arrive
        end;
        let hl = hlabel am dst_ssmp tag in
        Span.open_span_x sp ~parent:pctx ~time:arrive ~label:hl.h_label
          ~engine:hl.h_engine ~vpn:(-1) ~src ~dst ~src_ssmp ~dst_ssmp ~words
      end
    in
    finish_traced am sp ~pctx ~hctx ~fin k

let post am ~tag ~src ~dst ~words ~cost k =
  if cost < 0 || cost > max_cost then invalid_arg "Am.post: cost out of range";
  let src_ssmp = Mgs_machine.Topology.ssmp_of_proc am.topo src in
  let dst_ssmp = Mgs_machine.Topology.ssmp_of_proc am.topo dst in
  bump am src_ssmp tag;
  am.in_flight.(src_ssmp) <- am.in_flight.(src_ssmp) + 1;
  let at = Mgs_engine.Sim.now am.sim in
  match am.obs with
  | None ->
    Mgs_net.Lan.post am.lan ~tag ~src ~dst ~src_ssmp ~dst_ssmp ~words ~at
      ~msg:((cost lsl dst_bits) lor dst) k
  | Some tr ->
    Mgs_net.Lan.post am.lan ~tag ~src ~dst ~src_ssmp ~dst_ssmp ~words ~at ~msg:(-1)
      (deliver_traced am tr ~tag ~src ~dst ~src_ssmp ~dst_ssmp ~words ~cost ~at k)

let run_on am ?tag ~proc ~at ~cost k =
  let fin = Mgs_machine.Cpu.occupy am.cpus.(proc) ~at ~cost in
  match am.obs with
  | None -> Mgs_engine.Sim.at_k am.sim fin k
  | Some tr ->
    let sp = Mgs_obs.Trace.spans tr in
    let pctx = Span.current sp in
    let hctx =
      match tag with
      | None -> pctx
      | Some tag ->
        let ssmp = Mgs_machine.Topology.ssmp_of_proc am.topo proc in
        let txn = Span.txn_of pctx in
        Mgs_obs.Trace.emit tr ~time:fin ~engine:Mgs_obs.Event.Remote_client ~tag ~vpn:(-1)
          ~src:proc ~dst:proc ~src_ssmp:ssmp ~dst_ssmp:ssmp ~words:0 ~cost ~dur:(fin - at)
          ~txn;
        if txn < 0 then pctx
        else
          Span.open_span_x sp ~parent:pctx ~time:at ~label:tag
            ~engine:(hlabel am ssmp tag).tag_engine ~vpn:(-1) ~src:proc ~dst:proc
            ~src_ssmp:ssmp ~dst_ssmp:ssmp ~words:0
    in
    finish_traced am sp ~pctx ~hctx ~fin k

let set_obs am tr = am.obs <- tr

let count am tag =
  Array.fold_left
    (fun acc counts -> acc + match Tagtbl.find_opt counts tag with Some n -> !n | None -> 0)
    0 am.counts

let counts am =
  let merged = Tagtbl.create 32 in
  Array.iter
    (fun counts ->
      Tagtbl.iter
        (fun tag n ->
          Tagtbl.replace merged tag (!n + Option.value ~default:0 (Tagtbl.find_opt merged tag)))
        counts)
    am.counts;
  (* the tags are distinct *)
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Tagtbl.fold (fun tag n acc -> (tag, n) :: acc) merged [])

let total_posted am = Array.fold_left ( + ) 0 am.total

let in_flight_cell am c = am.in_flight.(c)
