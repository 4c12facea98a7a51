(** Structured protocol event records.

    One record per observable protocol action: a delivered active
    message, a LAN transfer, a protocol-engine state transition, or a
    synchronization episode.  Fields that do not apply carry [-1]
    ([vpn], processors, SSMPs) or [0] ([words], [cost], [dur]). *)

type engine =
  | Local_client  (** fault path of the faulting processor's SSMP *)
  | Remote_client  (** invalidation / write-back engine of an SSMP *)
  | Server  (** home-side page server *)
  | Network  (** active-message and LAN transport *)
  | Sync  (** lock and barrier episodes *)

type t = {
  time : int;  (** simulated time the event was recorded *)
  engine : engine;
  tag : string;  (** message tag or transition name *)
  vpn : int;  (** virtual page, [-1] if not page-related *)
  src : int;  (** source processor, [-1] if n/a *)
  dst : int;  (** destination processor, [-1] if n/a *)
  src_ssmp : int;
  dst_ssmp : int;
  words : int;  (** bulk payload words *)
  cost : int;  (** handler occupancy cycles *)
  dur : int;  (** latency from initiation to [time], 0 if instantaneous *)
  txn : int;  (** transaction this event serves ({!Span}), [-1] if none *)
}

val engine_name : engine -> string

val engine_index : engine -> int
(** The engine as a small int, for row stores; {!engine_of_index}
    inverts it. *)

val engine_of_index : int -> engine

val pp : Format.formatter -> t -> unit
