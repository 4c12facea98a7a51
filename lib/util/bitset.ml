type t = { words : Bytes.t; cap : int; mutable card : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Bytes.make ((n + 7) / 8) '\000'; cap = n; card = 0 }

let check s i = if i < 0 || i >= s.cap then invalid_arg "Bitset: out of range"

let get_bit s i = Char.code (Bytes.get s.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit s i b =
  let byte = Char.code (Bytes.get s.words (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte' = if b then byte lor mask else byte land lnot mask in
  Bytes.set s.words (i lsr 3) (Char.chr byte')

let mem s i =
  check s i;
  get_bit s i

let add s i =
  check s i;
  if not (get_bit s i) then begin
    set_bit s i true;
    s.card <- s.card + 1
  end

let remove s i =
  check s i;
  if get_bit s i then begin
    set_bit s i false;
    s.card <- s.card - 1
  end

let cardinal s = s.card

let is_empty s = s.card = 0

let clear s =
  Bytes.fill s.words 0 (Bytes.length s.words) '\000';
  s.card <- 0

(* Byte-at-a-time scan: sparse sets (the common case for dirty-word
   bitmaps and directories) skip zero bytes without testing each bit. *)
let iter f s =
  for b = 0 to Bytes.length s.words - 1 do
    let byte = Char.code (Bytes.unsafe_get s.words b) in
    if byte <> 0 then begin
      let base = b lsl 3 in
      for i = 0 to 7 do
        if byte land (1 lsl i) <> 0 then f (base + i)
      done
    end
  done

(* The least member >= [i], or -1: a zero byte is skipped whole, as in
   [iter], and nothing is allocated. *)
let rec next_in words b =
  if b >= Bytes.length words then -1
  else
    let byte = Char.code (Bytes.unsafe_get words b) in
    if byte = 0 then next_in words (b + 1) else (b lsl 3) + lowest_bit byte 0

and lowest_bit byte i = if byte land (1 lsl i) <> 0 then i else lowest_bit byte (i + 1)

let next s i =
  let i = Int.max i 0 in
  if i >= s.cap then -1
  else
    let b = i lsr 3 in
    let byte = Char.code (Bytes.unsafe_get s.words b) land (0xff lsl (i land 7)) in
    if byte <> 0 then (b lsl 3) + lowest_bit byte 0 else next_in s.words (b + 1)

let elements s =
  let acc = ref [] in
  for i = s.cap - 1 downto 0 do
    if get_bit s i then acc := i :: !acc
  done;
  !acc

let copy s = { words = Bytes.copy s.words; cap = s.cap; card = s.card }

let union_into dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.union_into: capacity mismatch";
  iter (fun i -> add dst i) src

let choose s =
  let rec go i = if i >= s.cap then None else if get_bit s i then Some i else go (i + 1) in
  go 0
