(** Active messages.

    MGS protocol engines communicate exclusively through active
    messages: a message names a destination processor and runs a handler
    there on arrival (section 4.2.3).  The handler occupies the
    destination processor — pushing its {!Mgs_machine.Cpu.busy_until}
    horizon forward and charging the MGS bucket — which is how protocol
    processing dilates application progress on that processor.

    Transport goes through {!Mgs_net.Lan}: inter-SSMP messages pay the
    LAN latency and sender occupancy; intra-SSMP messages use the fast
    path.  Bulk (page/diff) payloads add DMA latency but no per-word
    processor occupancy, as on Alewife. *)

type t

val create :
  Mgs_engine.Sim.t ->
  Mgs_machine.Costs.t ->
  Mgs_machine.Topology.t ->
  lan:Mgs_net.Lan.t ->
  cpus:Mgs_machine.Cpu.t array ->
  t

val post :
  t ->
  tag:string ->
  src:int ->
  dst:int ->
  words:int ->
  cost:int ->
  (Mgs_engine.Sim.time -> unit) ->
  unit
(** [post am ~src ~dst ~words ~cost k] sends a message from processor
    [src] to processor [dst], carrying [words] bulk words, whose handler
    consumes [handler_dispatch + cost] cycles of [dst]'s time.  [k] runs
    when the handler completes, at the completion time.  [tag] labels
    the message for the per-type counters.  Untraced, a message
    allocates one closure over [dst], [cost] and [k] and its two events'
    keys; [k] runs straight from the completion event. *)

val run_on :
  t ->
  ?tag:string ->
  proc:int ->
  at:Mgs_engine.Sim.time ->
  cost:int ->
  (Mgs_engine.Sim.time -> unit) ->
  unit
(** [run_on am ~proc ~at ~cost k] charges [cost] cycles of occupancy on
    [proc] starting no earlier than [at] (never in the past) and runs [k]
    at completion — protocol work not triggered by a message (e.g. a
    continuation after a lock handoff).  When [tag] is given and an event
    trace is installed, the occupancy slice is recorded under that tag. *)

val set_obs : t -> Mgs_obs.Trace.t option -> unit
(** Install (or remove) an event trace: every delivered message emits a
    structured {!Mgs_obs.Event.t} (tag, endpoints, payload size, handler
    cost, transport latency) into it.  [None] disables with no residual
    cost on the delivery path. *)

val count : t -> string -> int
(** Messages posted so far with the given tag. *)

val counts : t -> (string * int) list
(** All (tag, count) pairs, sorted by tag. *)

val total_posted : t -> int

val in_flight : t -> int
(** Messages posted whose handler has not yet been dispatched — the
    network-occupancy gauge the metrics sampler reads. *)

val in_flight_cell : t -> int -> int
(** One SSMP's in-flight cell (posted from it minus delivered to it;
    may be negative in isolation — only the sum is meaningful).  Safe
    to read from that shard's own event context. *)

val reset_counts : t -> unit
(** Zero the per-tag and total message counters (e.g. after a warmup
    phase, so a measured phase reports only its own traffic). *)
