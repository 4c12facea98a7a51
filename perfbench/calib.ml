(* A fixed reference loop that gauges the host's current speed.

   On a shared host the speed drifts by tens of percent over minutes, so
   run.py scales every host time by this loop's time measured next to it.
   The loop allocates, inserts into a balanced tree and a hash table, and
   sorts.  Its time tracks the workloads' slow periods better than an
   arithmetic loop or a cache-missing array loop does.  It uses no code
   from lib/, so no change there moves it. *)

module IM = Map.Make (Int)

let keys = 40_000

let work () =
  let x = ref 7 in
  let m = ref IM.empty in
  let h = Hashtbl.create 16 in
  for i = 1 to keys do
    x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
    m := IM.add !x i !m;
    Hashtbl.replace h (!x land 0xFFFF) (i, !x)
  done;
  let l = IM.fold (fun k v acc -> (k + v) :: acc) !m [] in
  ignore (Sys.opaque_identity (List.sort compare l, h))

(* Seconds the loop takes.  The GC runs at OCaml's default settings
   while it does, whatever the library set at start-up. *)
let time () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  Gc.full_major ();
  let t0 = Rep.now () in
  work ();
  let t = Rep.now () -. t0 in
  Gc.set saved;
  t
