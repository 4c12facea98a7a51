(* Fixed-size domain pool with deterministic result ordering.

   Work items are claimed from a shared atomic cursor, so domains load-
   balance freely, but results land in a slot per input index and are
   returned in input order — callers observe exactly the List.map
   semantics regardless of [jobs].  Exceptions are captured per item and
   re-raised after every worker has drained, lowest index first, so the
   failing run reported is also independent of scheduling. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let tasks = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r = try Ok (f tasks.(i)) with e -> Error e in
          results.(i) <- Some r;
          go ()
        end
      in
      go ()
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
         results)
  end
