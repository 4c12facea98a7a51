(** Fixed-size domain pool for embarrassingly parallel work.

    Each simulation in a sweep is self-contained, so the harness fans
    points out across OCaml 5 domains.  [map ~jobs f xs] behaves exactly
    like [List.map f xs] — results in input order, the exception of the
    lowest-index failing item re-raised — but evaluates up to [jobs]
    items concurrently.  [f] must not touch shared mutable state and
    must not print (defer output to the caller, which runs after the
    pool drains, to keep parallel runs byte-identical to sequential
    ones). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains.  [jobs <= 1] (or a singleton list) runs inline on the
    calling domain with no domain spawned. *)
