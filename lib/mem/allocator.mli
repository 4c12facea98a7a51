(** Shared virtual heap allocator and home assignment.

    Every virtual page has a fixed {e home} processor determined at
    allocation time (the paper fixes homes by virtual address for all
    time).  Allocations are rounded up to page boundaries so distinct
    objects never share a page; false sharing within one allocation —
    which drives the paper's TSP results — is preserved. *)

type home_policy =
  | On_proc of int  (** every page of the object homes on one processor *)
  | Interleaved  (** consecutive pages home on consecutive processors, round robin *)
  | Blocked
      (** the object is split into [nprocs] equal chunks of consecutive
          pages; chunk [i] homes on processor [i] (the "adjacent portions
          to nearby processors" layout used by Water and Jacobi) *)

type t

val create : Geom.t -> nprocs:int -> t
(** Fresh empty heap for a machine of [nprocs] processors. *)

val geom : t -> Geom.t

val nprocs : t -> int

val alloc : t -> words:int -> home:home_policy -> int * int array
(** [alloc h ~words ~home] reserves [words] words (rounded up to whole
    pages) and returns the base address and each new page's home
    processor, in page order, as [home] assigns them.  The allocator
    keeps no homes: the caller records them (the machine keeps each in
    its page's server entry).
    @raise Invalid_argument if [words <= 0] or a processor id is out of
    range. *)

val pages_allocated : t -> int

val words_allocated : t -> int
(** Total words reserved, including rounding. *)
