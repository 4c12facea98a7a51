(** Deterministic LAN fault injection.

    A {!spec} names the failure modes; a {!plan} binds a spec to a seed
    and a cluster count, owning one {!Mgs_util.Rng} stream per
    (src, dst) channel so a channel's fault schedule depends only on
    (seed, channel).  With no plan installed the transport draws nothing
    at all: faults-off runs stay byte-identical to the committed
    baseline. *)

type spec = {
  drop : float;  (** per-transmission loss probability *)
  dup : float;  (** probability a transmission is delivered twice *)
  delay_p : float;  (** probability of extra wire delay *)
  delay_max : int;  (** extra delay is uniform in [0, delay_max] cycles *)
  reorder : float;  (** probability a transmission skips the FIFO clamp *)
  slow : (int * float) list;  (** degraded SSMPs: [(ssmp, factor >= 1.0)] *)
  rto : int;  (** initial retransmission timeout; [0] = derived per message *)
  max_retries : int;  (** retransmissions before declaring a partition *)
}

val none : spec
(** All rates zero, no slow SSMPs; [max_retries = 10]. *)

val default_chaos : spec
(** A representative lossy LAN for chaos sweeps: 5% drop, 5% dup, 10%
    delay up to 2000 cycles, 5% reorder. *)

val scale : spec -> intensity:float -> spec
(** Multiply every probability by [intensity] (clamped to [0.95]); delay
    bound, slowdowns and retry parameters are unchanged.
    @raise Invalid_argument on negative intensity. *)

val is_zero : spec -> bool
(** True when the spec injects nothing (retry parameters ignored). *)

val of_string : string -> spec
(** Parse ["drop=0.1,dup=0.05,delay=0.2:2000,reorder=0.1,slow=1:2.0,rto=8000,retries=6"].
    Fields may appear in any order; missing fields default to {!none};
    ["none"] is accepted.  @raise Invalid_argument on malformed input. *)

val to_string : spec -> string
(** Round-trips through {!of_string}. *)

type plan
(** A spec bound to a seed and an SSMP count, with live RNG streams. *)

val make : spec -> seed:int -> nssmps:int -> plan

val spec_of : plan -> spec

val chan_rng : plan -> src:int -> dst:int -> Mgs_util.Rng.t
(** The stream owned by the (src, dst) SSMP channel's forward
    direction; drawn at the sender. *)

val ack_rng : plan -> src:int -> dst:int -> Mgs_util.Rng.t
(** The (src, dst) channel's ack-direction stream; drawn at the
    receiver.  Separate from {!chan_rng} so the sharded engine's sender
    and receiver shards never share a stream. *)

val slowdown : plan -> int -> float
(** Slowdown factor of an SSMP; [1.0] when healthy. *)

val flip : Mgs_util.Rng.t -> float -> bool
(** One Bernoulli draw.  Always consumes exactly one variate, so stream
    positions do not depend on the probability value. *)

val extra_delay : Mgs_util.Rng.t -> spec -> int
(** Extra wire delay for one transmission: uniform in
    [0, delay_max] with probability [delay_p], else [0].  Consumes a
    fixed number of variates regardless of the outcome. *)
