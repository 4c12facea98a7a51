type status = Running | Completed | Failed of exn

type t = { mutable status : status; name : string }

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Sleep : Sim.time -> unit Effect.t

let status fb = fb.status

let name fb = fb.name

let perform eff =
  try Effect.perform eff
  with Effect.Unhandled _ -> failwith "Fiber.suspend: called outside a fiber"

let suspend register = perform (Suspend register)

let sleep_until (_ : Sim.t) t = perform (Sleep t)

let spawn sim ?shard ~at ~name body =
  let fb = { status = Running; name } in
  let handled () =
    let open Effect.Deep in
    (* the handler's answers are built once; each effect leaves its
       argument in a ref for them *)
    let wake = ref 0 and register = ref ignore in
    let sleep = Some (fun k -> Sim.at sim !wake (fun () -> continue k ())) in
    let suspend = Some (fun k -> !register (fun () -> continue k ())) in
    match_with body ()
      {
        retc = (fun () -> fb.status <- Completed);
        exnc = (fun e -> fb.status <- Failed e);
        effc =
          (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
            match eff with
            | Sleep t ->
              wake := t;
              sleep
            | Suspend r ->
              register := r;
              suspend
            | _ -> None);
      }
  in
  (match shard with
  | None -> Sim.at sim at handled
  | Some s -> Sim.at_shard sim ~shard:s at handled);
  fb

let check_all_completed fibers =
  (* surface real failures before reporting deadlocks: a crashed fiber
     usually explains why the others are still parked at a barrier *)
  List.iter (fun fb -> match fb.status with Failed e -> raise e | _ -> ()) fibers;
  List.iter
    (fun fb ->
      match fb.status with
      | Completed | Failed _ -> ()
      | Running -> failwith (Printf.sprintf "fiber %S deadlocked (still blocked)" fb.name))
    fibers
