(* The one message record both transport layers speak.

   [Am.post] fills every field; [Lan.send] reads the SSMP endpoints and
   payload size; the fault layer and the trace hook both consume the
   same value instead of parallel labelled-argument signatures.
   Processor endpoints are [-1] for transport-internal traffic (raw LAN
   sends in tests, acks). *)

type t = {
  tag : string;  (* protocol message type: RREQ, REL, ... *)
  src : int;  (* source processor, -1 if n/a *)
  dst : int;  (* destination processor, -1 if n/a *)
  src_ssmp : int;
  dst_ssmp : int;
  words : int;  (* bulk payload words (page / diff data) *)
  cost : int;  (* destination handler occupancy beyond dispatch *)
}

let make ?(tag = "LAN") ?(src = -1) ?(dst = -1) ?(cost = 0) ~src_ssmp ~dst_ssmp ~words () =
  { tag; src; dst; src_ssmp; dst_ssmp; words; cost }
