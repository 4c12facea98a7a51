type t = { page_words : int; line_words : int }

let bytes_per_word = 4

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* the paper's 16-byte cache line *)
let line_words = 4

let create ?(page_words = 256) () =
  if not (is_pow2 page_words) then invalid_arg "Geom.create: page_words not a power of two";
  if line_words > page_words then invalid_arg "Geom.create: line larger than page";
  { page_words; line_words }

let page_bytes g = g.page_words * bytes_per_word

let vpn_of_addr g addr = addr / g.page_words

let offset_of_addr g addr = addr land (g.page_words - 1)

let addr_of_vpn g vpn = vpn * g.page_words

let line_of_addr g addr = addr / g.line_words

let lines_per_page g = g.page_words / g.line_words

let line_offset_in_page g addr = offset_of_addr g addr / g.line_words
