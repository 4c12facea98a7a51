(** Deterministic pseudo-random number generation (SplitMix64).

    The simulator must be fully reproducible: identical seeds yield
    identical event orders and therefore identical cycle counts.  This
    generator is small, fast, and splittable enough for our purposes
    (independent streams are obtained by perturbing the seed). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a generator determined entirely by [seed]. *)

val split : t -> t
(** [split g] derives an independent generator; [g] advances. *)

val split_key : t -> key:int -> t
(** [split_key g ~key] derives an independent generator from [g]'s
    current state and [key] {e without advancing [g]}: the whole family
    of children is a function of the parent's state alone, regardless of
    creation order.  Distinct keys give decorrelated streams (see the
    independence smoke test in [test_util]). *)

val bits64 : t -> int64
(** [bits64 g] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in [0 .. n-1].  @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [0, x). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle driven by [g]. *)
