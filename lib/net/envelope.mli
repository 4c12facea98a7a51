(** The one message record both transport layers speak.

    {!Mgs_am.Am.post} fills every field; {!Lan.send} reads the SSMP
    endpoints and payload size; the fault layer and the trace hook both
    consume this value instead of parallel labelled callback
    signatures. *)

type t = {
  tag : string;  (** protocol message type: RREQ, REL, ... *)
  src : int;  (** source processor, [-1] if n/a *)
  dst : int;  (** destination processor, [-1] if n/a *)
  src_ssmp : int;
  dst_ssmp : int;
  words : int;  (** bulk payload words (page / diff data) *)
  cost : int;  (** destination handler occupancy beyond dispatch *)
}

val make :
  ?tag:string ->
  ?src:int ->
  ?dst:int ->
  ?cost:int ->
  src_ssmp:int ->
  dst_ssmp:int ->
  words:int ->
  unit ->
  t
(** Convenience constructor for tests and transport-internal messages;
    the per-message hot path builds the record literally instead. *)
