(* A typed equality and the identity hash: a lookup compares and hashes
   in registers, with no call into the runtime. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)
