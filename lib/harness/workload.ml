(* First-class workloads behind one face: the CLIs, the benchmark
   driver, and the perf harness select an application by name, and
   adding a workload means one [register] of one [make] — not a variant
   case in three hand-kept dispatch tables.

   The generic knobs every driver already exposes (--size, --iters,
   --lock) flow through [args]; anything application-specific rides the
   [extra] key=value list.  [make] checks both against the knobs the
   workload accepts, so an unknown knob is a loud error naming the
   knobs that exist. *)

type args = {
  size : int option;  (** generic problem-size knob (--size) *)
  iters : int option;  (** generic iteration knob (--iters) *)
  lock : Mgs_sync.Locks.kind option;  (** lock algorithm (--lock) *)
  extra : (string * string) list;  (** workload-specific key=value params *)
}

let default_args = { size = None; iters = None; lock = None; extra = [] }

module type WORKLOAD = sig
  val name : string

  val instantiate : args -> Sweep.workload

  val problem_size : args -> string

  val tiny : unit -> Sweep.workload

  val epilogue : Mgs.Machine.t -> string
end

(* Reject any knob the workload does not accept — generic (size, iters,
   lock) and [extra] alike — naming the knobs that exist, as an unknown
   protocol or lock name does. *)
let check_args ~name ~knobs (a : args) =
  let reject_unknown k =
    if not (List.mem k knobs) then
      invalid_arg
        (Printf.sprintf "workload %s: unknown parameter %S (accepted: %s)" name k
           (String.concat ", " knobs))
  in
  (match a.size with Some _ -> reject_unknown "size" | None -> ());
  (match a.iters with Some _ -> reject_unknown "iters" | None -> ());
  (match a.lock with Some _ -> reject_unknown "lock" | None -> ());
  List.iter (fun (k, _) -> reject_unknown k) a.extra

let make ~name ~knobs ~of_args ~workload ~problem_size ~tiny ~epilogue =
  let of_args a =
    check_args ~name ~knobs a;
    of_args a
  in
  (module struct
    let name = name

    let instantiate a = workload (of_args a)

    let problem_size a = problem_size (of_args a)

    let tiny () = workload tiny

    let epilogue = epilogue
  end : WORKLOAD)

let no_epilogue _ = ""

let extra_int ~name (a : args) key ~default =
  match List.assoc_opt key a.extra with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      invalid_arg (Printf.sprintf "workload %s: parameter %s expects an integer, got %S" name key v))

let extra_float ~name (a : args) key ~default =
  match List.assoc_opt key a.extra with
  | None -> default
  | Some v -> (
    match float_of_string_opt v with
    | Some x -> x
    | None ->
      invalid_arg (Printf.sprintf "workload %s: parameter %s expects a number, got %S" name key v))

(* --- the registry --------------------------------------------------- *)

let registry : (string, (module WORKLOAD)) Hashtbl.t = Hashtbl.create 16

let register ((module W : WORKLOAD) as impl) =
  if Hashtbl.mem registry W.name then
    invalid_arg (Printf.sprintf "Workload.register: %S already registered" W.name);
  Hashtbl.add registry W.name impl

let names () = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) registry [])

let of_name name =
  match Hashtbl.find_opt registry name with
  | Some impl -> impl
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (registered: %s)" name
         (String.concat ", " (names ())))

let instantiate ?(args = default_args) name =
  let (module W) = of_name name in
  W.instantiate args

let tiny name =
  let (module W) = of_name name in
  W.tiny ()

let problem_size ?(args = default_args) name =
  let (module W) = of_name name in
  W.problem_size args

(* Parse one "key=value" command-line fragment into an [extra] pair. *)
let parse_kv s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> invalid_arg (Printf.sprintf "expected KEY=VALUE, got %S" s)
