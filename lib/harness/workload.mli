(** First-class workload registry.

    Every application registers once as a {!WORKLOAD} built by {!make}
    from its name, the knobs it accepts, and its constructors.  The
    CLIs ([mgs_run --app]), the benchmark driver, and the perf harness
    then select workloads by name; an unknown name raises naming every
    registered workload, and an unknown knob raises naming every
    accepted one. *)

type args = {
  size : int option;  (** generic problem-size knob (--size) *)
  iters : int option;  (** generic iteration knob (--iters) *)
  lock : Mgs_sync.Locks.kind option;
      (** lock algorithm (--lock); [None] keeps the workload's default *)
  extra : (string * string) list;  (** workload-specific key=value params *)
}

val default_args : args
(** All knobs unset: every workload runs its published defaults. *)

module type WORKLOAD = sig
  val name : string
  (** Registry key; what [--app] and perf-row names say. *)

  val instantiate : args -> Sweep.workload
  (** Build the runnable workload.
      @raise Invalid_argument on an unknown or malformed parameter. *)

  val problem_size : args -> string
  (** Human description of the instantiated problem.
      @raise Invalid_argument as [instantiate] does. *)

  val tiny : unit -> Sweep.workload
  (** Smoke-test-sized instance (seconds, not minutes). *)

  val epilogue : Mgs.Machine.t -> string
  (** Post-run report rendered from the machine's observability state
      (e.g. the KV tier's tail-latency table); [""] for workloads with
      nothing beyond the standard report. *)
end

val make :
  name:string ->
  knobs:string list ->
  of_args:(args -> 'p) ->
  workload:('p -> Sweep.workload) ->
  problem_size:('p -> string) ->
  tiny:'p ->
  epilogue:(Mgs.Machine.t -> string) ->
  (module WORKLOAD)
(** The workload whose parameters are ['p].  Its [instantiate] and
    [problem_size] first reject any knob — generic ([size], [iters],
    [lock]) or [extra] — absent from [knobs], naming the accepted ones
    in [knobs]' order, then a [size] below 1 or a negative [iters],
    naming the workload, then build from [of_args]. *)

val no_epilogue : Mgs.Machine.t -> string
(** Always [""]. *)

val extra_int : name:string -> args -> string -> default:int -> int
(** The [extra] value of a key as an integer, or [default] when unset.
    @raise Invalid_argument naming workload [name] on a non-integer. *)

val extra_float : name:string -> args -> string -> default:float -> float
(** As {!extra_int}, for a number. *)

(** {1 The registry} *)

val register : (module WORKLOAD) -> unit
(** @raise Invalid_argument on a duplicate name. *)

val names : unit -> string list
(** Registered workload names, sorted. *)

val of_name : string -> (module WORKLOAD)
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val instantiate : ?args:args -> string -> Sweep.workload
(** [of_name] + [W.instantiate] (default {!default_args}). *)

val tiny : string -> Sweep.workload

val problem_size : ?args:args -> string -> string

val parse_kv : string -> string * string
(** Split ["key=value"].
    @raise Invalid_argument otherwise. *)
