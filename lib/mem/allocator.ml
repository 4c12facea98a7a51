type home_policy = On_proc of int | Interleaved | Blocked

type t = {
  geom : Geom.t;
  nprocs : int;
  mutable next_vpn : int;
  mutable rr : int; (* round-robin cursor for Interleaved *)
}

let create geom ~nprocs =
  if nprocs <= 0 then invalid_arg "Allocator.create: nprocs";
  { geom; nprocs; next_vpn = 0; rr = 0 }

let geom h = h.geom

let nprocs h = h.nprocs

let pages_allocated h = h.next_vpn

let words_allocated h = h.next_vpn * h.geom.Geom.page_words

let alloc h ~words ~home =
  if words <= 0 then invalid_arg "Allocator.alloc: words";
  let pw = h.geom.Geom.page_words in
  let npages = (words + pw - 1) / pw in
  let base_vpn = h.next_vpn in
  let home_of i =
    match home with
    | On_proc p ->
      if p < 0 || p >= h.nprocs then invalid_arg "Allocator.alloc: processor out of range";
      p
    | Interleaved ->
      let p = h.rr in
      h.rr <- (h.rr + 1) mod h.nprocs;
      p
    | Blocked ->
      (* Chunk of consecutive pages per processor; remainders spread
         over the leading processors so every page has a home. *)
      let per = max 1 ((npages + h.nprocs - 1) / h.nprocs) in
      min (h.nprocs - 1) (i / per)
  in
  (* [Array.init] calls [home_of] in page order *)
  let homes = Array.init npages home_of in
  h.next_vpn <- base_vpn + npages;
  (base_vpn * pw, homes)
