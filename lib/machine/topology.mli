(** DSSMP topology: P processors grouped into SSMPs (clusters) of C
    processors each.

    The paper's framework keeps P fixed and varies C from 1 (all-software
    sharing) to P (one tightly-coupled machine). *)

type t = private {
  nprocs : int;  (** P: total processors *)
  cluster : int;  (** C: processors per SSMP *)
  nssmps : int;  (** P / C *)
  proc_ssmp : int array;  (** per processor, its SSMP: what {!ssmp_of_proc} reads *)
}

val create : nprocs:int -> cluster:int -> t
(** @raise Invalid_argument unless [1 <= cluster <= nprocs] and
    [cluster] divides [nprocs]. *)

val ssmp_of_proc : t -> int -> int
(** SSMP (cluster) containing processor [p]. *)

val first_proc_of_ssmp : t -> int -> int
(** Lowest-numbered processor of SSMP [s]. *)

val procs_of_ssmp : t -> int -> int list
(** Processors of SSMP [s], ascending. *)

val same_ssmp : t -> int -> int -> bool

val single_ssmp : t -> bool
(** [true] iff C = P: the tightly-coupled degenerate case where the
    software protocol never runs. *)
