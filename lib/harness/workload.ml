(* First-class workloads behind one face: the CLIs, the benchmark
   driver, and the perf harness select an application by name, and
   adding a workload means one [register] call — not a variant case in
   three hand-kept dispatch tables.

   The generic knobs every driver already exposes (--size, --iters,
   --lock) flow through [args]; anything application-specific rides the
   [extra] key=value list, validated by the workload itself against its
   published [params] spec, so an unknown knob is a loud error naming
   the knobs that exist. *)

type args = {
  size : int option;  (** generic problem-size knob (--size) *)
  iters : int option;  (** generic iteration knob (--iters) *)
  lock : Mgs_sync.Locks.kind option;  (** lock algorithm (--lock) *)
  extra : (string * string) list;  (** workload-specific key=value params *)
}

let default_args = { size = None; iters = None; lock = None; extra = [] }

type param = { p_name : string; p_default : string; p_doc : string }

module type WORKLOAD = sig
  val name : string

  val doc : string

  val params : param list

  val instantiate : args -> Sweep.workload

  val problem_size : args -> string

  val tiny : unit -> Sweep.workload

  val epilogue : Mgs.Machine.t -> string
end

(* --- spec helpers shared by implementations ------------------------- *)

let no_epilogue _ = ""

let param ~name ~default ~doc = { p_name = name; p_default = default; p_doc = doc }

let size_param ~default ~doc = param ~name:"size" ~default ~doc

let iters_param ~default ~doc = param ~name:"iters" ~default ~doc

let lock_param =
  param ~name:"lock" ~default:Mgs_sync.Locks.(name_of Token) ~doc:"lock algorithm"

(* Reject any knob the workload did not declare — generic (size, iters,
   lock) and [extra] alike — naming the knobs that exist, as an unknown
   protocol or lock name does. *)
let check_args ~name ~params (a : args) =
  let known = List.map (fun p -> p.p_name) params in
  let accepted = match known with [] -> "none" | _ -> String.concat ", " known in
  let reject_unknown k =
    if not (List.mem k known) then
      invalid_arg
        (Printf.sprintf "workload %s: unknown parameter %S (accepted: %s)" name k accepted)
  in
  (match a.size with Some _ -> reject_unknown "size" | None -> ());
  (match a.iters with Some _ -> reject_unknown "iters" | None -> ());
  (match a.lock with Some _ -> reject_unknown "lock" | None -> ());
  List.iter (fun (k, _) -> reject_unknown k) a.extra

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

let find name = Hashtbl.find_opt registry name

let mem name = Hashtbl.mem registry name

let names () = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) registry [])

let of_name name =
  match find name with
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

(* One-line-per-workload listing for CLI help and error paths. *)
let describe_all () =
  List.map
    (fun name ->
      let (module W) = of_name name in
      let knobs =
        match W.params with
        | [] -> ""
        | ps ->
          Printf.sprintf " [%s]"
            (String.concat ", "
               (List.map (fun p -> Printf.sprintf "%s=%s" p.p_name p.p_default) ps))
      in
      Printf.sprintf "%-20s %s%s" name W.doc knobs)
    (names ())

(* Parse one "key=value" command-line fragment into an [extra] pair. *)
let parse_kv s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> invalid_arg (Printf.sprintf "expected KEY=VALUE, got %S" s)
