type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let s = bits64 g in
  { state = mix s }

(* Keyed split: the child depends only on the parent's current state and
   [key], and the parent does not advance — so a family of streams (one
   per network channel, say) is determined by the seed alone, however
   many and in whatever order the children are created. *)
let split_key g ~key =
  let s = Int64.add g.state (Int64.mul golden_gamma (Int64.of_int ((2 * key) + 1))) in
  { state = mix (mix s) }

let int g n =
  if n <= 0 then invalid_arg "Rng.int";
  (* Mask to 62 bits so the value stays nonnegative in OCaml's 63-bit
     native ints. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  r mod n

let float g x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  (* 53 random bits scaled to [0,1). *)
  r /. 9007199254740992.0 *. x


let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
