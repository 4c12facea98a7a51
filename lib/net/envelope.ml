(* A message's header as the fault path retains it: [Lan.post] builds
   one for each [pending] record under a fault plan, and tests build
   them for [Lan.send].  Processor endpoints are [-1] for raw LAN sends. *)

type t = {
  tag : string;  (* protocol message type: RREQ, REL, ... *)
  src : int;  (* source processor, -1 if n/a *)
  dst : int;  (* destination processor, -1 if n/a *)
  src_ssmp : int;
  dst_ssmp : int;
  words : int;  (* bulk payload words (page / diff data) *)
}

let make ?(tag = "LAN") ?(src = -1) ?(dst = -1) ~src_ssmp ~dst_ssmp ~words () =
  { tag; src; dst; src_ssmp; dst_ssmp; words }
