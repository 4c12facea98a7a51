type t = { page_words : int; line_words : int; page_shift : int }

let bytes_per_word = 4

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* the paper's 16-byte cache line *)
let line_words = 4

let create ?(page_words = 256) () =
  if not (is_pow2 page_words) then invalid_arg "Geom.create: page_words not a power of two";
  if line_words > page_words then invalid_arg "Geom.create: line larger than page";
  let rec log2 k = if 1 lsl k = page_words then k else log2 (k + 1) in
  { page_words; line_words; page_shift = log2 0 }

let page_bytes g = g.page_words * bytes_per_word

(* Shifts and masks, and a division by the constant line size: the
   event path splits an address on every access, and no split divides
   by a field. *)
let vpn_of_addr g addr = addr asr g.page_shift

let offset_of_addr g addr = addr land (g.page_words - 1)

let addr_of_vpn g vpn = vpn * g.page_words

let line_of_addr _ addr = addr / line_words

let lines_per_page g = g.page_words / line_words

let line_offset_in_page g addr = offset_of_addr g addr / line_words
