module Inttbl = Mgs_util.Inttbl

type kind = Read | Write

type stats = {
  mutable hits : int;
  mutable local_misses : int;
  mutable remote_misses : int;
  mutable misses_2party : int;
  mutable misses_3party : int;
  mutable software_extensions : int;
}

(* A cache slot is one int, [line lsl 2 lor state]; the states are
   ordered, so a hit is a matching line in at least the state the access
   needs.  An invalidated slot keeps its line, and a fresh slot is line
   0, invalid. *)
let invalid = 0

let shared = 1

let modified = 2

(* Sharer-mask bits per directory word: processor [p] is bit
   [p mod mask_bits] of mask word [p / mask_bits], so a mask word stays
   non-negative. *)
let mask_bits = 62

(* A page's directory is one flat int array, [stride] words per line:
   the line's owner (the local proc holding it Modified; -1 if none),
   then its sharer mask (the local procs holding it Shared, owner
   excluded).  It is created on the page's first miss and reset in place
   by [flush_page].  The hit path never touches it; the miss path
   resolves the array once per page streak through a one-entry memo, so
   steady-state misses do no hashing either. *)
type t = {
  costs : Mgs_machine.Costs.t;
  geom : Mgs_mem.Geom.t;
  cluster : int;
  nslots : int; (* slots per processor, a power of two *)
  slots : int array; (* [proc * nslots + slot] = line lsl 2 lor state *)
  lines_per_page : int;
  line_mask : int; (* lines_per_page - 1 *)
  lpp_shift : int; (* log2 lines_per_page: line lsr lpp_shift = vpn *)
  mwords : int; (* sharer-mask words per line *)
  stride : int; (* directory words per line: 1 + mwords *)
  pages : int array Inttbl.t; (* vpn -> directory words *)
  mutable memo_vpn : int; (* page streak memo; -1 = empty *)
  mutable memo_pd : int array;
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

let check_costs costs =
  let nslots = costs.Mgs_machine.Costs.hardware.cache_line_slots in
  if nslots <= 0 || nslots land (nslots - 1) <> 0 then
    invalid_arg "Coherence.create: cache_line_slots not a power of two"

let create costs geom ~cluster =
  if cluster <= 0 then invalid_arg "Coherence.create: cluster";
  check_costs costs;
  let nslots = costs.Mgs_machine.Costs.hardware.cache_line_slots in
  let lpp = Mgs_mem.Geom.lines_per_page geom in
  let mwords = (cluster + mask_bits - 1) / mask_bits in
  {
    costs;
    geom;
    cluster;
    nslots;
    slots = Array.make (cluster * nslots) 0;
    lines_per_page = lpp;
    line_mask = lpp - 1;
    lpp_shift = log2_pow2 lpp;
    mwords;
    stride = 1 + mwords;
    pages = Inttbl.create 64;
    memo_vpn = -1;
    memo_pd = [||];
    stats = fresh_stats ();
  }

let page_dir c vpn =
  if c.memo_vpn = vpn then c.memo_pd
  else begin
    let pd =
      try Inttbl.find c.pages vpn
      with Not_found ->
        let pd = Array.make (c.lines_per_page * c.stride) 0 in
        for i = 0 to c.lines_per_page - 1 do
          pd.(i * c.stride) <- -1
        done;
        Inttbl.add c.pages vpn pd;
        pd
    in
    c.memo_vpn <- vpn;
    c.memo_pd <- pd;
    pd
  end

(* The entry of [line] starts at word [entry c line] of its page's
   directory. *)
let entry c line = (line land c.line_mask) * c.stride

let mask_word e p = e + 1 + (p / mask_bits)

let mask_bit p = 1 lsl (p mod mask_bits)

let is_sharer pd e p = pd.(mask_word e p) land mask_bit p <> 0

let add_sharer pd e p =
  let w = mask_word e p in
  pd.(w) <- pd.(w) lor mask_bit p

let remove_sharer pd e p =
  let w = mask_word e p in
  pd.(w) <- pd.(w) land lnot (mask_bit p)

let rec popcount x n = if x = 0 then n else popcount (x land (x - 1)) (n + 1)

let sharer_count c pd e =
  let n = ref 0 in
  for w = e + 1 to e + c.mwords do
    n := popcount pd.(w) !n
  done;
  !n

let clear_sharers c pd e =
  for w = e + 1 to e + c.mwords do
    pd.(w) <- 0
  done

(* A line maps to slot [line mod nslots]; [nslots] is a power of two, so
   a mask, not a division. *)
let slot_of c ~proc ~line = (proc * c.nslots) + (line land (c.nslots - 1))

(* Drop [proc]'s cache slot [i] from the directory when the slot is
   reassigned to a different line. *)
let evict c ~proc ~i =
  let v = c.slots.(i) in
  if v land 3 <> invalid then
    let old = v lsr 2 in
    match Inttbl.find c.pages (old lsr c.lpp_shift) with
    | pd ->
      let e = entry c old in
      if pd.(e) = proc then pd.(e) <- -1;
      remove_sharer pd e proc
    | exception Not_found -> ()

(* Remove the line from another processor's cache (invalidation). *)
let zap c ~proc ~line =
  let i = slot_of c ~proc ~line in
  if c.slots.(i) lsr 2 = line then c.slots.(i) <- line lsl 2

let downgrade c ~proc ~line =
  let i = slot_of c ~proc ~line in
  if c.slots.(i) = (line lsl 2) lor modified then c.slots.(i) <- (line lsl 2) lor shared

(* Zap every sharer of entry [e] but [except], walking the set bits of
   each mask word; a zero byte is skipped whole. *)
let rec zap_mask c ~line ~except m p =
  if m <> 0 then
    if m land 0xff = 0 then zap_mask c ~line ~except (m lsr 8) (p + 8)
    else begin
      if m land 1 <> 0 && p <> except then zap c ~proc:p ~line;
      zap_mask c ~line ~except (m lsr 1) (p + 1)
    end

let zap_sharers c pd e ~except ~line =
  for w = 0 to c.mwords - 1 do
    zap_mask c ~line ~except pd.(e + 1 + w) (w * mask_bits)
  done

(* Miss classes are determined by the party/ownership case that produced
   the cost — not by comparing the cost against the parameter table,
   which misclassifies whenever two cost parameters share a value.  The
   stat counters are bumped inline in each case so the classification
   needs no intermediate cell (this path must not allocate). *)
let access_miss c ~proc ~line ~i ~frame_owner ~kind =
  let hw = c.costs.Mgs_machine.Costs.hardware in
  let st = c.stats in
  evict c ~proc ~i;
  let pd = page_dir c (line lsr c.lpp_shift) in
  let e = entry c line in
  let nsharers = sharer_count c pd e in
  let overflow = nsharers > hw.hw_dir_pointers in
  let owner = pd.(e) in
  let base =
    match kind with
    | Read ->
      if owner >= 0 && owner <> proc then begin
        (* Fetch from a dirty third party; the owner downgrades. *)
        let two = owner = frame_owner in
        downgrade c ~proc:owner ~line;
        add_sharer pd e owner;
        pd.(e) <- -1;
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
      if owner >= 0 && owner <> proc then begin
        let two = owner = frame_owner in
        zap c ~proc:owner ~line;
        pd.(e) <- -1;
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
        (* Invalidate all other sharers. *)
        let others = nsharers - (if is_sharer pd e proc then 1 else 0) in
        zap_sharers c pd e ~except:proc ~line;
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
          let two = frame_owner <> proc && is_sharer pd e frame_owner in
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
    add_sharer pd e proc;
    c.slots.(i) <- (line lsl 2) lor shared
  | Write ->
    clear_sharers c pd e;
    pd.(e) <- proc;
    c.slots.(i) <- (line lsl 2) lor modified);
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
  let i = slot_of c ~proc ~line in
  let v = c.slots.(i) in
  let need = match kind with Read -> shared | Write -> modified in
  if v lsr 2 = line && v land 3 >= need then begin
    (* The hit path reads one slot word: no directory resolution, no
       allocation. *)
    c.stats.hits <- c.stats.hits + 1;
    c.costs.Mgs_machine.Costs.hardware.cache_hit
  end
  else access_miss c ~proc ~line ~i ~frame_owner ~kind

let flush_page c ~vpn ~dirty =
  dirty := 0;
  match Inttbl.find c.pages vpn with
  | exception Not_found -> 0
  | pd ->
    let base_line = vpn * c.lines_per_page in
    let present = ref 0 in
    (* Reset the entries in place rather than dropping the array: pages
       are flushed and refetched throughout a run, and rebuilding the
       per-page directory on every refetch would dominate allocation.
       Plain loops (no iterator closures) keep the flush allocation-free
       even though it scans all lines_per_page entries. *)
    let stride = c.stride and mwords = c.mwords in
    for li = 0 to c.lines_per_page - 1 do
      (* [e + mwords] is inside the page's [lines_per_page * stride] words *)
      let e = li * stride in
      let owner = Array.unsafe_get pd e and mask = ref (Array.unsafe_get pd (e + 1)) in
      for w = e + 2 to e + mwords do
        mask := !mask lor Array.unsafe_get pd w
      done;
      if owner >= 0 || !mask <> 0 then begin
        incr present;
        let l = base_line + li in
        if owner >= 0 then begin
          incr dirty;
          zap c ~proc:owner ~line:l;
          pd.(e) <- -1
        end;
        zap_sharers c pd e ~except:(-1) ~line:l;
        clear_sharers c pd e
      end
    done;
    !present

let check_invariants c =
  (* cache slots must be backed by directory entries *)
  for proc = 0 to c.cluster - 1 do
    for s = 0 to c.nslots - 1 do
      let v = c.slots.((proc * c.nslots) + s) in
      let line = v lsr 2 and state = v land 3 in
      if state <> invalid then
        match Inttbl.find_opt c.pages (line lsr c.lpp_shift) with
        | None ->
          failwith (Printf.sprintf "proc %d caches line %d with no directory entry" proc line)
        | Some pd ->
          let e = entry c line in
          if state = modified then begin
            if pd.(e) <> proc then
              failwith (Printf.sprintf "proc %d Modified line %d but owner=%d" proc line pd.(e))
          end
          else if not (is_sharer pd e proc || pd.(e) = proc) then
            failwith (Printf.sprintf "proc %d Shared line %d not in sharers" proc line)
    done
  done;
  (* no directory entry may record an owner who no longer caches it as
     Modified... the owner may have been evicted, in which case the slot
     is reused; we only require that a recorded owner does not cache the
     line in Shared state.  Nor may a mask name a processor outside the
     cluster. *)
  Inttbl.iter
    (fun vpn pd ->
      for li = 0 to c.lines_per_page - 1 do
        let e = li * c.stride in
        let line = (vpn * c.lines_per_page) + li in
        let owner = pd.(e) in
        if owner >= 0 && c.slots.(slot_of c ~proc:owner ~line) = (line lsl 2) lor shared then
          failwith (Printf.sprintf "owner %d of line %d is only Shared" owner line);
        if pd.(e + c.mwords) lsr ((c.cluster - 1) mod mask_bits) > 1 then
          failwith (Printf.sprintf "line %d has a sharer outside the cluster" line)
      done)
    c.pages

let stats c = c.stats
