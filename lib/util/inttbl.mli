(** Hash tables keyed by ints.

    The generic [Hashtbl] hashes a key with a C call ([caml_hash]) and
    compares it with another ([compare_val]); this instance compares
    with [Int.equal]'s machine compare and hashes with the identity
    ([x land max_int]), so a lookup stays in registers.  Dense keys such
    as page numbers fill consecutive buckets.  A table's iteration order
    is its bucket order, which differs from a generic table's: a table
    whose fold or iteration order the simulated machine can observe
    stays a generic [Hashtbl]. *)

include Hashtbl.S with type key = int
