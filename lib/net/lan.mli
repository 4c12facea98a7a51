(** External (inter-SSMP) network model.

    The paper emulates a LAN on Alewife by queueing outgoing inter-SSMP
    messages at the sending processor and delivering them after a fixed
    latency (section 4.2.2); neither LAN contention nor interface
    contention is modelled.  We reproduce exactly that: each SSMP has a
    sender whose occupancy serialises its outgoing messages, and every
    message is delivered [latency] cycles after it leaves the queue.
    Bulk data adds DMA time proportional to its size.

    A {!Fault} plan may be installed to make the wire lossy.  The layer
    then runs a reliable transport underneath: every logical message is
    sequence-numbered per (src, dst) channel, retransmitted on an
    exponential-backoff timer until acknowledged, and delivered to the
    handler exactly once and in channel order — so the protocol engines
    above see the same interface whether the wire is perfect or not.
    A message awaiting its ack is held by its ack event and its
    retransmission timer, not looked up; only the receiver's reorder
    buffer, which the in-order drain probes by sequence number, is a
    table per channel.
    With no plan installed none of this machinery runs and the
    simulation is byte-identical to a faults-free build. *)

type t

type stats = {
  mutable messages : int;  (** logical inter-SSMP messages (dups/retries not counted) *)
  mutable data_words : int;  (** bulk payload words carried *)
  mutable retransmits : int;  (** retransmission attempts *)
  mutable dup_drops : int;  (** received copies discarded by dedup *)
  mutable timeouts : int;  (** retransmission timer expiries *)
  mutable acks : int;  (** acknowledgements sent *)
}

type partition = {
  part_src_ssmp : int;
  part_dst_ssmp : int;
  part_tag : string;  (** tag of the message that exhausted its retries *)
  part_retries : int;
}

exception Net_partition of partition
(** Raised out of {!Mgs_engine.Sim.run} when a message exhausts
    [max_retries]: the channel is treated as partitioned and the run
    ends with a typed outcome instead of hanging. *)

val create : Mgs_engine.Sim.t -> Mgs_machine.Costs.t -> nssmps:int -> t

val rto_cap : int
(** Ceiling on the retransmission timeout.  Unbounded doubling would
    overflow [int] after ~60 unacknowledged retries, turning the RTO
    negative and collapsing the backoff into a retransmission storm. *)

val next_rto : int -> int
(** [next_rto cur] is the backed-off timeout after another expiry:
    [cur * 2], saturating at {!rto_cap}. *)

val post :
  t -> tag:string -> src:int -> dst:int -> src_ssmp:int -> dst_ssmp:int -> words:int ->
  at:Mgs_engine.Sim.time -> msg:int -> (Mgs_engine.Sim.time -> unit) -> unit
(** [post lan ~tag ~src ~dst ~src_ssmp ~dst_ssmp ~words ~at ~msg k]
    sends [words] bulk words from SSMP [src_ssmp], leaving no earlier
    than [at] (the sender's present), to [dst_ssmp], and delivers [msg]
    and [k] there as {!Mgs_engine.Sim.at_msg} does: [k] runs at the
    finish of [msg]'s handler, or at the delivery time when [msg] is
    [-1].  [tag] and the processor endpoints [src] and [dst] only label
    trace events and a {!Net_partition}.  [src_ssmp = dst_ssmp] models a
    local protocol message: it bypasses the LAN (and any fault plan) and
    costs only the intra-SSMP message latency.  Under a fault plan, [k]
    still runs exactly once, in channel order, however the wire
    misbehaves — or {!Net_partition} ends the run.  Without one, the
    delivery event carries [msg] and [k] and allocates nothing; with
    one, the transport keeps them until it delivers. *)

val send : t -> Envelope.t -> at:Mgs_engine.Sim.time -> (Mgs_engine.Sim.time -> unit) -> unit
(** [send lan env ~at k] is {!post} with [env]'s fields and no message
    word: [k] runs at the delivery time. *)

val stats : t -> stats

val cell : t -> int -> stats
(** [cell lan c] is SSMP [c]'s live counter cell, which only [c]'s
    engine shard writes: its sends, retransmissions and timeouts, and
    the acks it sent and duplicates it dropped as a receiver. *)

val set_obs : t -> Mgs_obs.Trace.t option -> unit
(** Install (or remove) an event trace: every inter-SSMP delivery emits
    a ["LAN"] event carrying the endpoints, payload size, and queueing +
    transfer latency (measured from post to delivery), and every
    retransmission a ["NET.RETRY"] event plus a [net.retry] span
    parented at the posting operation. *)

val set_fault_plan : t -> Fault.plan -> unit
(** Install a fault plan, with fresh transport state; do it before
    traffic flows, not mid-run.  A LAN without one stays faults-free. *)

val fault_plan : t -> Fault.plan option

val unacked : t -> int
(** Messages posted but not yet acknowledged; [0] at quiescence and
    always [0] without a fault plan.  The sum of the per-SSMP counts
    {!unacked_cell} reads. *)

val unacked_cell : t -> int -> int
(** The part of {!unacked} that SSMP [c] sent: one sender-side count
    that only [c]'s engine shard touches. *)
