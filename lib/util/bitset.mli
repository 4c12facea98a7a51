(** Fixed-capacity mutable bitsets.

    Used for directory sharer sets and SSMP membership sets, where the
    universe (number of processors or SSMPs) is small and known at
    creation time. *)

type t
(** A mutable set of integers drawn from [0 .. capacity - 1]. *)

val create : int -> t
(** [create n] is an empty set over the universe [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val add : t -> int -> unit
(** [add s i] inserts [i].  @raise Invalid_argument if out of range. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i]; no-op if absent. *)

val mem : t -> int -> bool
(** [mem s i] tests membership. *)

val cardinal : t -> int
(** [cardinal s] is the number of members. *)

val is_empty : t -> bool
(** [is_empty s] is [cardinal s = 0]. *)

val clear : t -> unit
(** [clear s] removes every member. *)

val iter : (int -> unit) -> t -> unit
(** [iter f s] applies [f] to each member in increasing order. *)

val next : t -> int -> int
(** [next s i] is the least member [>= i], or [-1] if there is none.
    Allocates nothing, so a loop over a set's members needs no
    closure. *)

val elements : t -> int list
(** [elements s] lists members in increasing order. *)

val copy : t -> t
(** [copy s] is an independent duplicate of [s]. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst].
    @raise Invalid_argument if capacities differ. *)

val choose : t -> int option
(** [choose s] is the least member, if any. *)
