(** A message's header as the fault path retains it.

    The reliable transport keeps one in each message's [pending]
    record; tests and benchmarks build one with {!make} for
    {!Lan.send}.  {!Lan.post}, which {!Mgs_am.Am.post} calls, takes the
    fields instead and builds one only under a fault plan. *)

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
(** Constructor for tests and benchmarks; [cost] is carried, never read
    by the transport. *)
