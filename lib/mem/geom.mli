(** Memory geometry: page and cache-line sizes and the address
    arithmetic derived from them.

    Addresses are word indices into the shared virtual address space
    (one word = 4 bytes, the simulator's unit of data; values are held
    as OCaml floats for convenience, but all costs model 32-bit data,
    matching the paper's single-precision workloads).  The paper's
    evaluation uses 1K-byte pages and 16-byte cache lines, i.e. 256
    words per page and 4 words per line. *)

type t = private {
  page_words : int;  (** words per page (power of two) *)
  line_words : int;  (** words per cache line: always 4 (16 B) *)
  page_shift : int;  (** log2 [page_words] *)
}

val create : ?page_words:int -> unit -> t
(** Default: [page_words = 256] (1 KB).
    @raise Invalid_argument unless [page_words] is a power of two no
    smaller than a line. *)

val bytes_per_word : int
(** 4: data values are 32-bit words. *)

val page_bytes : t -> int

val vpn_of_addr : t -> int -> int
(** Virtual page number containing word address [addr] ([addr >= 0]). *)

val offset_of_addr : t -> int -> int
(** Word offset of [addr] within its page. *)

val addr_of_vpn : t -> int -> int
(** First word address of page [vpn]. *)

val line_of_addr : t -> int -> int
(** Global line number containing [addr]. *)

val lines_per_page : t -> int

val line_offset_in_page : t -> int -> int
(** Line index within its page of the line containing word [addr]. *)
