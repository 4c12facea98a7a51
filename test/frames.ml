(* Frame ownership, checked from outside the protocol engines.

   A frame — the array an SSMP's copy of a page lives in — has exactly
   one holder at a time: a client entry's [cdata], its spare slot
   [cdata_free], a home's pool, or one message in flight; and it is
   never a page's master.  [check_unaliased] walks what a finished run
   left behind; [pingpong] shows that a re-grant fills the requester's
   retired frame instead of allocating a page, and [single_writer] that
   a 1WDATA travels in a pooled frame instead of a copy. *)

open Mgs.State

(* Every frame a run left with a client, and every master, labelled. *)
let holders (m : Mgs.Machine.t) =
  let acc = ref [] in
  let add label = function Some p -> acc := (label, p) :: !acc | None -> () in
  Array.iter
    (fun cl ->
      Hashtbl.iter
        (fun vpn ce ->
          add (Printf.sprintf "SSMP %d page %d copy" cl.cl_id vpn) ce.cdata;
          add (Printf.sprintf "SSMP %d page %d spare" cl.cl_id vpn) ce.cdata_free)
        cl.cl_pages)
    m.clients;
  Array.iteri
    (fun ssmp pool ->
      List.iteri (fun i f -> add (Printf.sprintf "SSMP %d pool frame %d" ssmp i) (Some f)) pool)
    m.home_frames;
  Array.iteri (fun vpn se -> add (Printf.sprintf "page %d master" vpn) (Some se.s_master)) m.servers;
  !acc

(* Fail if two holders share one array (a client frame that is also a
   master included); return how many client frames were walked. *)
let check_unaliased m =
  let hs = holders m in
  let rec go = function
    | [] -> ()
    | (a, p) :: rest ->
      List.iter
        (fun (b, q) -> if p == q then failwith (Printf.sprintf "%s and %s share one array" a b))
        rest;
      go rest
  in
  go hs;
  List.length hs - Array.length m.servers

(* One verified run of [w] that keeps its machine for the walk. *)
let run ?faults ?(adapt = false) ~protocol ~par ~nprocs ~cluster (w : Mgs_harness.Sweep.workload) =
  let cfg =
    Mgs.Machine.config ~lan_latency:1000 ~protocol:(Mgs.Protocol.proto_of_name protocol)
      ~par_jobs:par ~adapt ?faults ~nprocs ~cluster ()
  in
  let m = Mgs.Machine.create cfg in
  let body, verify = w.Mgs_harness.Sweep.prepare m in
  if Mgs.Report.completed (Mgs.Machine.run m body) then begin
    Mgs.Machine.assert_quiescent m;
    verify m
  end;
  m

(* Large enough that one page dwarfs the protocol's own per-turn
   allocation (its messages, fiber switches and diff). *)
let page_words = 2048

(* Words allocated so far, minor and major alike: an array of a page
   is allocated straight in the major heap.  The counters are exact
   only right after a minor collection, and one at the start also
   keeps blocks allocated before a run from being promoted (and so
   subtracted) during it. *)
let words () =
  Gc.minor ();
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Two SSMPs of one processor each take turns, [rounds] turns apiece,
   writing one word of a page homed on SSMP 0 and releasing it (under
   HLRC a turn first applies the other's write notices).  Turns are a
   million cycles apart, so each one re-fetches the page.  The
   single-writer optimization is off: with it a lone writer keeps its
   copy across the release and ships a snapshot home, so nothing would
   be re-granted.  Returns the words the run allocated and how
   many turns' grants installed the very frame the SSMP held on its
   previous turn. *)
let pingpong ~protocol ~rounds =
  let features = { default_features with single_writer_opt = false } in
  let cfg =
    Mgs.Machine.config ~nprocs:2 ~cluster:1 ~page_words ~protocol ~features ~shadow:false ()
  in
  let m = Mgs.Machine.create cfg in
  let page = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let vpn = Geom.vpn_of_addr m.geom page in
  let notices = Hashtbl.create 8 in
  let last = Array.make 2 [||] and reused = ref 0 in
  let w0 = words () in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let p = Mgs.Api.proc ctx in
         for k = 0 to rounds - 1 do
           Mgs.Api.idle_until ctx (((2 * k) + p) * 1_000_000);
           Mgs.Protocol.at_acquire m ~proc:p ~notices;
           Mgs.Api.write ctx page (float_of_int k);
           let frame = Option.get (get_centry m p vpn).cdata in
           if frame == last.(p) then incr reused;
           last.(p) <- frame;
           Mgs.Protocol.at_release m ~proc:p ~notices
         done));
  let allocated = words () -. w0 in
  ignore (check_unaliased m);
  (allocated, !reused)

(* The ping-pong at two lengths, so the machine's fixed costs cancel:
   every re-grant after each SSMP's first touch must install the
   SSMP's own retired frame, and a round trip (one turn each) must
   allocate at most [budget] words, a small part of one page: its
   messages' continuations, its fiber suspensions and its diffs. *)
let check_pingpong protocol ~budget =
  let w1, _ = pingpong ~protocol ~rounds:20 in
  let w2, reused = pingpong ~protocol ~rounds:40 in
  Alcotest.(check int) "re-grants that installed the retired frame" (2 * (40 - 1)) reused;
  let per = (w2 -. w1) /. 20. in
  if per > float_of_int budget then
    Alcotest.failf "%.0f words per round trip, budget %d" per budget

(* The processor of SSMP 1 writes one word of a page homed on SSMP 0
   and releases it, [rounds] times, under MGS with the single-writer
   optimization on: each release recalls the lone write copy with a
   1WINV, and the 1WDATA ships the page home while the writer keeps its
   copy.  Returns the words the run allocated, the 1WDATAs sent and the
   frames the home's pool holds at the end. *)
let single_writer ~rounds =
  let cfg = Mgs.Machine.config ~nprocs:2 ~cluster:1 ~page_words ~shadow:false () in
  let m = Mgs.Machine.create cfg in
  let page = Mgs.Machine.alloc m ~words:1 ~home:(Mgs_mem.Allocator.On_proc 0) in
  let w0 = words () in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         if Mgs.Api.proc ctx = 1 then
           for k = 0 to rounds - 1 do
             Mgs.Api.write ctx page (float_of_int k);
             Mgs.Protocol.release m ~proc:1
           done));
  let allocated = words () -. w0 in
  ignore (check_unaliased m);
  (allocated, total m Mgs.Pstats.one_wdata, List.length m.home_frames.(0))

(* At two lengths, as the ping-pong: every release ships a 1WDATA, the
   first in a copy that then stays in the home's pool, and each later
   one in that frame, so a release allocates less than a page. *)
let check_single_writer () =
  let w1, _, _ = single_writer ~rounds:20 in
  let w2, sent, pooled = single_writer ~rounds:40 in
  Alcotest.(check (pair int int)) "1WDATAs sent, frames pooled" (40, 1) (sent, pooled);
  let per = (w2 -. w1) /. 20. in
  if per >= float_of_int page_words then
    Alcotest.failf "%.0f words per single-writer release, a page is %d" per page_words
