type kind = Read | Write

type stats = {
  mutable hits : int;
  mutable local_misses : int;
  mutable remote_misses : int;
  mutable misses_2party : int;
  mutable misses_3party : int;
  mutable software_extensions : int;
}

(* Per-processor cache slot state for the line it currently holds. *)
type slot_state = Invalid | Shared | Modified

type dir_entry = {
  mutable owner : int; (* local proc holding the line Modified; -1 if none *)
  sharers : Mgs_util.Bitset.t; (* local procs holding it Shared (excl. owner) *)
}

(* The directory is a flat [dir_entry array] per page (one entry per
   line), created on a page's first miss and dropped by [flush_page].
   The hit path never touches it; the miss path resolves the array once
   per page streak through a one-entry memo, so steady-state misses do
   no hashing either. *)
type t = {
  costs : Mgs_machine.Costs.t;
  geom : Mgs_mem.Geom.t;
  cluster : int;
  tags : int array array; (* [proc].(slot) = line id or -1 *)
  states : slot_state array array;
  lines_per_page : int;
  line_mask : int; (* lines_per_page - 1 *)
  lpp_shift : int; (* log2 lines_per_page: line lsr lpp_shift = vpn *)
  pages : (int, dir_entry array) Hashtbl.t; (* vpn -> per-line entries *)
  mutable memo_vpn : int; (* page streak memo; -1 = empty *)
  mutable memo_pd : dir_entry array;
  stats : stats;
}

let fresh_stats () =
  {
    hits = 0;
    local_misses = 0;
    remote_misses = 0;
    misses_2party = 0;
    misses_3party = 0;
    software_extensions = 0;
  }

let log2_pow2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let create costs geom ~cluster =
  if cluster <= 0 then invalid_arg "Coherence.create: cluster";
  let slots = costs.Mgs_machine.Costs.hardware.cache_line_slots in
  let lpp = Mgs_mem.Geom.lines_per_page geom in
  {
    costs;
    geom;
    cluster;
    tags = Array.init cluster (fun _ -> Array.make slots (-1));
    states = Array.init cluster (fun _ -> Array.make slots Invalid);
    lines_per_page = lpp;
    line_mask = lpp - 1;
    lpp_shift = log2_pow2 lpp;
    pages = Hashtbl.create 64;
    memo_vpn = -1;
    memo_pd = [||];
    stats = fresh_stats ();
  }

let page_dir c vpn =
  if c.memo_vpn = vpn then c.memo_pd
  else begin
    let pd =
      try Hashtbl.find c.pages vpn
      with Not_found ->
        let pd =
          Array.init c.lines_per_page (fun _ ->
              { owner = -1; sharers = Mgs_util.Bitset.create c.cluster })
        in
        Hashtbl.add c.pages vpn pd;
        pd
    in
    c.memo_vpn <- vpn;
    c.memo_pd <- pd;
    pd
  end

let entry_of c line = (page_dir c (line lsr c.lpp_shift)).(line land c.line_mask)

let slot_of c line = line mod Array.length c.tags.(0)

(* Drop [proc]'s cache slot contribution to the directory when the slot
   is reassigned to a different line. *)
let evict c ~proc ~slot =
  let old = c.tags.(proc).(slot) in
  if old >= 0 && c.states.(proc).(slot) <> Invalid then
    match Hashtbl.find c.pages (old lsr c.lpp_shift) with
    | pd ->
      let e = pd.(old land c.line_mask) in
      if e.owner = proc then e.owner <- -1;
      Mgs_util.Bitset.remove e.sharers proc
    | exception Not_found -> ()

(* Remove the line from another processor's cache (invalidation). *)
let zap c ~proc ~line =
  let slot = slot_of c line in
  if c.tags.(proc).(slot) = line then c.states.(proc).(slot) <- Invalid

let downgrade c ~proc ~line =
  let slot = slot_of c line in
  if c.tags.(proc).(slot) = line && c.states.(proc).(slot) = Modified then
    c.states.(proc).(slot) <- Shared

(* Miss classes are determined by the party/ownership case that produced
   the cost — not by comparing the cost against the parameter table,
   which misclassifies whenever two cost parameters share a value.  The
   stat counters are bumped inline in each case so the classification
   needs no intermediate cell (this path must not allocate). *)
let access_miss c ~proc ~line ~slot ~frame_owner ~kind =
  let hw = c.costs.Mgs_machine.Costs.hardware in
  let st = c.stats in
  evict c ~proc ~slot;
  let e = entry_of c line in
  let nsharers = Mgs_util.Bitset.cardinal e.sharers in
  let overflow = nsharers > hw.hw_dir_pointers in
  let base =
    match kind with
    | Read ->
      if e.owner >= 0 && e.owner <> proc then begin
        (* Fetch from a dirty third party; the owner downgrades. *)
        let two = e.owner = frame_owner in
        downgrade c ~proc:e.owner ~line;
        Mgs_util.Bitset.add e.sharers e.owner;
        e.owner <- -1;
        if two then begin
          st.misses_2party <- st.misses_2party + 1;
          hw.miss_2party
        end
        else begin
          st.misses_3party <- st.misses_3party + 1;
          hw.miss_3party
        end
      end
      else if proc = frame_owner then begin
        st.local_misses <- st.local_misses + 1;
        hw.miss_local
      end
      else begin
        st.remote_misses <- st.remote_misses + 1;
        hw.miss_remote
      end
    | Write ->
      if e.owner >= 0 && e.owner <> proc then begin
        let two = e.owner = frame_owner in
        zap c ~proc:e.owner ~line;
        e.owner <- -1;
        if two then begin
          st.misses_2party <- st.misses_2party + 1;
          hw.miss_2party
        end
        else begin
          st.misses_3party <- st.misses_3party + 1;
          hw.miss_3party
        end
      end
      else begin
        (* Invalidate all other sharers.  The cluster is small, so a
           membership scan beats materialising the sharer list. *)
        let others = nsharers - (if Mgs_util.Bitset.mem e.sharers proc then 1 else 0) in
        for p = 0 to c.cluster - 1 do
          if p <> proc && Mgs_util.Bitset.mem e.sharers p then zap c ~proc:p ~line
        done;
        if others = 0 then
          if proc = frame_owner then begin
            st.local_misses <- st.local_misses + 1;
            hw.miss_local
          end
          else begin
            st.remote_misses <- st.remote_misses + 1;
            hw.miss_remote
          end
        else if others = 1 then begin
          (* The lone other sharer is the frame owner iff the frame
             owner is a sharer and isn't us. *)
          let two = frame_owner <> proc && Mgs_util.Bitset.mem e.sharers frame_owner in
          if two then begin
            st.misses_2party <- st.misses_2party + 1;
            hw.miss_2party
          end
          else begin
            st.misses_3party <- st.misses_3party + 1;
            hw.miss_3party
          end
        end
        else begin
          st.misses_3party <- st.misses_3party + 1;
          hw.miss_3party
        end
      end
  in
  (match kind with
  | Read ->
    Mgs_util.Bitset.add e.sharers proc;
    c.tags.(proc).(slot) <- line;
    c.states.(proc).(slot) <- Shared
  | Write ->
    Mgs_util.Bitset.clear e.sharers;
    e.owner <- proc;
    c.tags.(proc).(slot) <- line;
    c.states.(proc).(slot) <- Modified);
  if overflow then begin
    st.software_extensions <- st.software_extensions + 1;
    base + hw.remote_software
  end
  else base

let access c ~proc ~addr ~frame_owner ~kind =
  if proc < 0 || proc >= c.cluster then invalid_arg "Coherence.access: proc";
  if frame_owner < 0 || frame_owner >= c.cluster then
    invalid_arg "Coherence.access: frame_owner";
  let line = Mgs_mem.Geom.line_of_addr c.geom addr in
  let slot = slot_of c line in
  let st = if c.tags.(proc).(slot) = line then c.states.(proc).(slot) else Invalid in
  let hit = match (kind, st) with Read, (Shared | Modified) | Write, Modified -> true | _ -> false in
  if hit then begin
    (* The hit path touches only the flat tag/state arrays: no
       directory resolution, no allocation. *)
    c.stats.hits <- c.stats.hits + 1;
    c.costs.Mgs_machine.Costs.hardware.cache_hit
  end
  else access_miss c ~proc ~line ~slot ~frame_owner ~kind

let flush_page c ~vpn ~dirty =
  dirty := 0;
  match Hashtbl.find c.pages vpn with
  | exception Not_found -> 0
  | pd ->
    let base_line = vpn * c.lines_per_page in
    let present = ref 0 in
    (* Reset the entries in place rather than dropping the array: pages
       are flushed and refetched throughout a run, and rebuilding the
       per-page directory on every refetch would dominate allocation.
       Plain loops (no iterator closures) keep the flush allocation-free
       even though it now always scans all lines_per_page entries. *)
    for i = 0 to c.lines_per_page - 1 do
      let e = pd.(i) in
      if e.owner >= 0 || not (Mgs_util.Bitset.is_empty e.sharers) then begin
        incr present;
        let l = base_line + i in
        if e.owner >= 0 then begin
          incr dirty;
          zap c ~proc:e.owner ~line:l;
          e.owner <- -1
        end;
        for p = 0 to c.cluster - 1 do
          if Mgs_util.Bitset.mem e.sharers p then zap c ~proc:p ~line:l
        done;
        Mgs_util.Bitset.clear e.sharers
      end
    done;
    !present

let check_invariants c =
  (* cache slots must be backed by directory entries *)
  Array.iteri
    (fun proc tags ->
      Array.iteri
        (fun slot line ->
          if line >= 0 && c.states.(proc).(slot) <> Invalid then begin
            match Hashtbl.find_opt c.pages (line lsr c.lpp_shift) with
            | None ->
              failwith
                (Printf.sprintf "proc %d caches line %d with no directory entry" proc line)
            | Some pd -> (
              let e = pd.(line land c.line_mask) in
              match c.states.(proc).(slot) with
              | Modified ->
                if e.owner <> proc then
                  failwith (Printf.sprintf "proc %d Modified line %d but owner=%d" proc line e.owner)
              | Shared ->
                if not (Mgs_util.Bitset.mem e.sharers proc || e.owner = proc) then
                  failwith (Printf.sprintf "proc %d Shared line %d not in sharers" proc line)
              | Invalid -> ())
          end)
        tags)
    c.tags;
  (* no directory entry may record an owner who no longer caches it as
     Modified... the owner may have been evicted, in which case the slot
     is reused; we only require that a recorded owner does not cache the
     line in Shared state *)
  Hashtbl.iter
    (fun vpn pd ->
      Array.iteri
        (fun i e ->
          if e.owner >= 0 then begin
            let line = (vpn * c.lines_per_page) + i in
            let slot = slot_of c line in
            if c.tags.(e.owner).(slot) = line && c.states.(e.owner).(slot) = Shared then
              failwith (Printf.sprintf "owner %d of line %d is only Shared" e.owner line)
          end)
        pd)
    c.pages

let stats c = c.stats
