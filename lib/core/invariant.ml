(* Online protocol invariant checker.

   {!State.obs_emit} calls it through the machine's [check] hook at
   every protocol transition, before anything is recorded, so it needs
   no trace.  It is read-only: it never creates client or server entries
   and never mutates protocol state, so it cannot perturb an execution.

   Its state is one slot per SSMP, indexed like {!State.count}, and each
   fact is checked on the shard that owns it: server facts on [Server]
   transitions, which run on the page's current home; BUSY-implies-
   mapping-lock on client transitions, for the executing SSMP's own
   entry.  A page's reply-accounting entry is created and removed within
   one epoch, and homes migrate only between epochs, so it never changes
   slot.  {!finish} checks span balance on the machine's span store,
   when one exists: the trace, or an application's own spans. *)

open State

type violation = {
  v_time : int;  (** simulated time of the triggering event *)
  v_vpn : int;
  v_tag : string;  (** tag of the triggering event *)
  v_msg : string;
}

type slot = {
  mutable total : int;
  mutable stored : violation list; (* newest first, capped *)
  expected : (int, int) Hashtbl.t; (* vpn -> expected s_count at next collect *)
}

type t = { machine : State.t; slots : slot array }

let stored_limit = 64

let report c ~vpn ~tag msg =
  let sl = c.slots.(cur_slot ()) in
  sl.total <- sl.total + 1;
  if List.length sl.stored < stored_limit then
    sl.stored <-
      { v_time = Sim.now c.machine.sim; v_vpn = vpn; v_tag = tag; v_msg = msg }
      :: sl.stored

let reportf c ~vpn ~tag fmt = Printf.ksprintf (report c ~vpn ~tag) fmt

(* Non-negative [s_count] and directory discipline.  This runs on every
   server transition, so the scan uses plain loops and
   [Bitset.mem]/[Hashtbl.mem] — no iterator closures or option boxes —
   to keep the checker's own allocation at zero. *)
let check_server c se ~vpn ~tag =
  if se.s_count < 0 then reportf c ~vpn ~tag "s_count negative (%d)" se.s_count;
  let nssmps = c.machine.topo.Topology.nssmps in
  for ssmp = 0 to nssmps - 1 do
    if Bitset.mem se.s_read_dir ssmp && Bitset.mem se.s_write_dir ssmp then
      reportf c ~vpn ~tag "SSMP %d in both read and write directories" ssmp
  done;
  if se.s_state <> S_rel then begin
    (* every directory member has a frame processor — not during an
       epoch, whose replies retire [s_frame_procs] entries before the
       directories are rebuilt.  Two passes, read directory then write
       directory, preserving the order and multiplicity of reports. *)
    for ssmp = 0 to nssmps - 1 do
      if Bitset.mem se.s_read_dir ssmp && not (Hashtbl.mem se.s_frame_procs ssmp) then
        reportf c ~vpn ~tag "directory member SSMP %d has no frame processor" ssmp
    done;
    for ssmp = 0 to nssmps - 1 do
      if Bitset.mem se.s_write_dir ssmp && not (Hashtbl.mem se.s_frame_procs ssmp) then
        reportf c ~vpn ~tag "directory member SSMP %d has no frame processor" ssmp
    done
  end

(* Outstanding-reply accounting across one epoch.  [sv.collect] fires
   before the decrement, so the observed count must equal the expected
   value exactly and be positive. *)
let check_epoch c se ~vpn ~tag =
  let expected = c.slots.(cur_slot ()).expected in
  match tag with
  | "sv.epoch_start" | "sv.epoch_extend" -> Hashtbl.replace expected vpn se.s_count
  | "sv.collect" -> (
    if se.s_count <= 0 then reportf c ~vpn ~tag "reply collected with s_count=%d" se.s_count;
    match Hashtbl.find expected vpn with
    | e ->
      if se.s_count <> e then
        reportf c ~vpn ~tag "s_count %d, expected %d (lost or duplicated reply)" se.s_count e;
      Hashtbl.replace expected vpn (se.s_count - 1)
    | exception Not_found ->
      (* checker attached mid-epoch: adopt the observed count *)
      Hashtbl.replace expected vpn (se.s_count - 1))
  | "sv.epoch_end" ->
    if se.s_count <> 0 then reportf c ~vpn ~tag "epoch completed with s_count=%d" se.s_count;
    Hashtbl.remove expected vpn
  | _ -> ()

(* Release-visibility oracle: every logical write to a page with no
   surviving write copy must be visible in the merged master.  (A
   retained single-writer copy may legitimately run ahead of it.) *)
let check_oracle c se ~vpn =
  let m = c.machine in
  if m.shadow && Bitset.is_empty se.s_write_dir then
    for off = 0 to Array.length se.s_master - 1 do
      let got = se.s_master.(off) and want = se.s_shadow.(off) in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        reportf c ~vpn ~tag:"sv.epoch_end" "release not visible: addr %d master=%h shadow=%h"
          (Geom.addr_of_vpn m.geom vpn + off)
          got want
    done

let on_event c ~engine ~tag ~vpn =
  if vpn >= 0 then
    let m = c.machine in
    match (engine : Mgs_obs.Event.engine) with
    | Server ->
      let se = m.servers.(vpn) in
      check_epoch c se ~vpn ~tag;
      check_server c se ~vpn ~tag;
      if tag = "sv.epoch_end" then check_oracle c se ~vpn
    | Local_client | Remote_client -> (
      let s = cur_slot () in
      match Hashtbl.find m.clients.(s).cl_pages vpn with
      | ce ->
        if ce.pstate = P_busy && not (Mlock.held ce.mlock) then
          reportf c ~vpn ~tag "SSMP %d BUSY without holding the mapping lock" s
      | exception Not_found -> ())
    | Network | Sync -> ()

let attach m =
  let c =
    {
      machine = m;
      slots =
        Array.init m.topo.Topology.nssmps (fun _ ->
            { total = 0; stored = []; expected = Hashtbl.create 64 });
    }
  in
  (* the invariants are MGS's; the other engines are judged only by
     span balance at {!finish} *)
  if m.protocol = Protocol_mgs then m.check <- Some (on_event c);
  c

(* End-of-run check, valid once the machine is quiescent: every span
   must be closed.  A still-open span is an orphaned transaction — a
   fault, release, or sync episode whose completion never came — which
   no per-event check can see. *)
let finish c =
  match c.machine.store with
  | None -> ()
  | Some tr ->
    let sp = Mgs_obs.Trace.spans tr in
    let n = Mgs_obs.Span.open_count sp in
    if n > 0 then begin
      let labels = Mgs_obs.Span.open_labels sp in
      let shown = List.filteri (fun i _ -> i < 8) labels in
      let suffix = if n > List.length shown then ", ..." else "" in
      reportf c ~vpn:(-1) ~tag:"span.orphan"
        "%d orphaned transaction span%s still open at end of run: %s%s" n
        (if n = 1 then "" else "s")
        (String.concat ", " shown)
        suffix
    end

let count c = Array.fold_left (fun acc sl -> acc + sl.total) 0 c.slots

(* The slots merged by (time, SSMP, record order), first 64: each slot
   keeps its own first 64, so the listing is the same at every job
   count. *)
let violations c =
  List.concat_map (fun sl -> List.rev sl.stored) (Array.to_list c.slots)
  |> List.stable_sort (fun a b -> compare a.v_time b.v_time)
  |> List.filteri (fun i _ -> i < stored_limit)

let pp ppf c =
  let total = count c in
  let m = c.machine in
  if total = 0 then
    if m.protocol = Protocol_mgs then Format.fprintf ppf "invariants: ok@."
    else
      Format.fprintf ppf "invariants: none for %s%s@." (Protocol.name_of m.protocol)
        (if Option.is_some m.store then " (span balance ok)" else "")
  else begin
    Format.fprintf ppf "invariants: %d violation%s@." total (if total = 1 then "" else "s");
    List.iter
      (fun v ->
        Format.fprintf ppf "  [t=%d vpn=%d %s] %s@." v.v_time v.v_vpn v.v_tag v.v_msg)
      (violations c);
    if total > stored_limit then
      Format.fprintf ppf "  ... %d more suppressed@." (total - stored_limit)
  end
