(** First-class workload registry.

    Every application packages itself as a {!WORKLOAD} module — a name,
    a one-line description, a published parameter spec, and constructors
    — and registers once.  The CLIs ([mgs_run --app]), the benchmark
    driver, and the perf harness then select workloads by name; an
    unknown name raises naming every registered workload, and an unknown
    parameter raises naming every accepted one. *)

type args = {
  size : int option;  (** generic problem-size knob (--size) *)
  iters : int option;  (** generic iteration knob (--iters) *)
  lock : Mgs_sync.Locks.kind option;
      (** lock algorithm (--lock); [None] keeps the workload's default *)
  extra : (string * string) list;  (** workload-specific key=value params *)
}

val default_args : args
(** All knobs unset: every workload runs its published defaults. *)

type param = { p_name : string; p_default : string; p_doc : string }
(** One accepted parameter: name, default (rendered), one-line doc. *)

module type WORKLOAD = sig
  val name : string
  (** Registry key; what [--app] and perf-row names say. *)

  val doc : string
  (** One line for listings. *)

  val params : param list
  (** Accepted knobs, including the generic size/iters/lock ones when
      the workload honours them.  [instantiate] rejects anything else. *)

  val instantiate : args -> Sweep.workload
  (** Build the runnable workload.
      @raise Invalid_argument on an unknown or malformed parameter. *)

  val problem_size : args -> string
  (** Human description of the instantiated problem. *)

  val tiny : unit -> Sweep.workload
  (** Smoke-test-sized instance (seconds, not minutes). *)

  val epilogue : Mgs.Machine.t -> string
  (** Post-run report rendered from the machine's observability state
      (e.g. the KV tier's tail-latency table); [""] for workloads with
      nothing beyond the standard report. *)
end

(** {1 Spec-building helpers} *)

val no_epilogue : Mgs.Machine.t -> string
(** Always [""]. *)

val param : name:string -> default:string -> doc:string -> param

val size_param : default:string -> doc:string -> param

val iters_param : default:string -> doc:string -> param

val lock_param : param

val check_args : name:string -> params:param list -> args -> unit
(** @raise Invalid_argument on any knob — generic ([size]/[iters]/[lock])
    or [extra] — absent from [params], naming the accepted keys. *)

val extra_int : name:string -> args -> string -> default:int -> int

val extra_float : name:string -> args -> string -> default:float -> float

(** {1 The registry} *)

val register : (module WORKLOAD) -> unit
(** @raise Invalid_argument on a duplicate name. *)

val find : string -> (module WORKLOAD) option

val mem : string -> bool

val names : unit -> string list
(** Registered workload names, sorted. *)

val of_name : string -> (module WORKLOAD)
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val instantiate : ?args:args -> string -> Sweep.workload
(** [of_name] + [W.instantiate] (default {!default_args}). *)

val tiny : string -> Sweep.workload

val problem_size : ?args:args -> string -> string

val describe_all : unit -> string list
(** One line per registered workload: name, doc, parameter spec. *)

val parse_kv : string -> string * string
(** Split ["key=value"].
    @raise Invalid_argument otherwise. *)
