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
(** Installs the simulator's message hook ({!Mgs_engine.Sim.set_deliver}).
    @raise Invalid_argument unless there is one CPU per processor, and
    at most {!max_procs} of them. *)

val max_procs : int
(** [2{^20}]: a message word keeps its handler's processor in 20 bits. *)

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
    allocates nothing: its arrival event carries [dst] and [cost] in one
    word ({!Mgs_engine.Sim.at_msg}), and [k] runs straight from the
    completion event.  Traced, the arrival is a closure that also
    records the delivery.
    @raise Invalid_argument if [cost] is negative or at least [2{^42}]. *)

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

val in_flight_cell : t -> int -> int
(** One SSMP's in-flight cell, the network-occupancy gauge the metrics
    sampler reads: messages posted from it minus messages delivered to
    it, so it may be negative in isolation and only the sum over SSMPs
    counts messages whose handler has not yet been dispatched.  Safe
    to read from that shard's own event context. *)
