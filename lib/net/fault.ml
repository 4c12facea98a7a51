(* Deterministic LAN fault injection.

   A [spec] names the failure modes (drop / duplicate / delay / reorder
   probabilities, degraded-SSMP slowdowns, retransmission parameters); a
   [plan] binds a spec to a seed and a cluster count and owns one RNG
   stream per (src, dst) channel.  The streams are derived with
   {!Mgs_util.Rng.split_key}, so a channel's fault schedule depends only
   on (seed, channel) — faults on one channel never perturb another, and
   a run with no plan installed draws nothing at all, keeping faults-off
   runs byte-identical to the committed baseline.

   Every transmission draws the same number of variates from its channel
   stream regardless of the probability values, so two specs that differ
   only in rates see the same underlying randomness — intensity sweeps
   are paired experiments, not independent ones. *)

module Rng = Mgs_util.Rng

type spec = {
  drop : float;  (* per-transmission loss probability *)
  dup : float;  (* probability a transmission is delivered twice *)
  delay_p : float;  (* probability of extra wire delay *)
  delay_max : int;  (* extra delay is uniform in [0, delay_max] cycles *)
  reorder : float;  (* probability a transmission skips the FIFO clamp *)
  slow : (int * float) list;  (* degraded SSMPs: (ssmp, factor >= 1.0) *)
  rto : int;  (* initial retransmission timeout; 0 = derived per message *)
  max_retries : int;  (* retransmissions before declaring a partition *)
}

let none =
  {
    drop = 0.0;
    dup = 0.0;
    delay_p = 0.0;
    delay_max = 0;
    reorder = 0.0;
    slow = [];
    rto = 0;
    max_retries = 10;
  }

(* A representative lossy LAN for chaos sweeps: a few percent of every
   failure mode, scaled up or down by the sweep's intensity. *)
let default_chaos =
  { none with drop = 0.05; dup = 0.05; delay_p = 0.10; delay_max = 2000; reorder = 0.05 }

let clamp01 p = if p < 0.0 then 0.0 else if p > 0.95 then 0.95 else p

let scale s ~intensity =
  if intensity < 0.0 then invalid_arg "Fault.scale: negative intensity";
  {
    s with
    drop = clamp01 (s.drop *. intensity);
    dup = clamp01 (s.dup *. intensity);
    delay_p = clamp01 (s.delay_p *. intensity);
    reorder = clamp01 (s.reorder *. intensity);
  }

let is_zero s =
  s.drop = 0.0 && s.dup = 0.0 && s.delay_p = 0.0 && s.reorder = 0.0 && s.slow = []

(* "drop=0.1,dup=0.05,delay=0.2:2000,reorder=0.1,slow=1:2.0,rto=8000,retries=6"
   — unknown keys and malformed values raise with the full vocabulary. *)
let of_string str =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        invalid_arg
          (Printf.sprintf
             "Fault.of_string: %s (expected \
              drop=P,dup=P,delay=P:CYCLES,reorder=P,slow=SSMP:FACTOR,rto=CYCLES,retries=N)"
             msg))
      fmt
  in
  let prob key v =
    match float_of_string_opt v with
    | Some p when p >= 0.0 && p <= 1.0 -> p
    | _ -> fail "%s wants a probability in [0,1], got %S" key v
  in
  let posint key v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> fail "%s wants a nonnegative integer, got %S" key v
  in
  let split2 c s =
    match String.index_opt s c with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  let parse_field acc field =
    if String.trim field = "" then acc
    else
      match split2 '=' field with
      | None -> fail "field %S has no '='" field
      | Some (key, v) -> (
        match String.trim key with
        | "drop" -> { acc with drop = prob "drop" v }
        | "dup" -> { acc with dup = prob "dup" v }
        | "reorder" -> { acc with reorder = prob "reorder" v }
        | "rto" -> { acc with rto = posint "rto" v }
        | "retries" -> { acc with max_retries = posint "retries" v }
        | "delay" -> (
          match split2 ':' v with
          | Some (p, d) ->
            { acc with delay_p = prob "delay" p; delay_max = posint "delay" d }
          | None -> fail "delay wants P:CYCLES, got %S" v)
        | "slow" -> (
          match split2 ':' v with
          | Some (s, f) -> (
            match (int_of_string_opt s, float_of_string_opt f) with
            | Some ssmp, Some factor when ssmp >= 0 && factor >= 1.0 ->
              { acc with slow = acc.slow @ [ (ssmp, factor) ] }
            | _ -> fail "slow wants SSMP:FACTOR (factor >= 1.0), got %S" v)
          | None -> fail "slow wants SSMP:FACTOR, got %S" v)
        | key -> fail "unknown field %S" key)
  in
  if String.trim str = "none" then none
  else List.fold_left parse_field none (String.split_on_char ',' str)

let to_string s =
  let b = Buffer.create 64 in
  let sep () = if Buffer.length b > 0 then Buffer.add_char b ',' in
  let fld fmt = Printf.ksprintf (fun x -> sep (); Buffer.add_string b x) fmt in
  if s.drop > 0.0 then fld "drop=%g" s.drop;
  if s.dup > 0.0 then fld "dup=%g" s.dup;
  if s.delay_p > 0.0 then fld "delay=%g:%d" s.delay_p s.delay_max;
  if s.reorder > 0.0 then fld "reorder=%g" s.reorder;
  List.iter (fun (ssmp, f) -> fld "slow=%d:%g" ssmp f) s.slow;
  if s.rto > 0 then fld "rto=%d" s.rto;
  fld "retries=%d" s.max_retries;
  Buffer.contents b

type plan = {
  spec : spec;
  nssmps : int;
  chans : Rng.t array;  (* per (src * nssmps + dst) channel *)
  ack_chans : Rng.t array;
      (* separate per-channel streams for the ack direction: the forward
         draws happen at the sender and the ack draws at the receiver,
         which under the sharded engine are different domains — a shared
         stream would be a data race and a nondeterministic interleave *)
  slowf : float array;  (* per-SSMP slowdown factor, 1.0 = healthy *)
}

let make spec ~seed ~nssmps =
  if nssmps <= 0 then invalid_arg "Fault.make: nssmps";
  let slowf = Array.make nssmps 1.0 in
  List.iter
    (fun (ssmp, f) -> if ssmp >= 0 && ssmp < nssmps && f > 1.0 then slowf.(ssmp) <- f)
    spec.slow;
  let base = Rng.create ~seed in
  let n = nssmps * nssmps in
  {
    spec;
    nssmps;
    chans = Array.init n (fun i -> Rng.split_key base ~key:i);
    ack_chans = Array.init n (fun i -> Rng.split_key base ~key:(n + i));
    slowf;
  }

let spec_of p = p.spec

let chan_rng p ~src ~dst = p.chans.((src * p.nssmps) + dst)

let ack_rng p ~src ~dst = p.ack_chans.((src * p.nssmps) + dst)

let slowdown p ssmp = p.slowf.(ssmp)

let flip g p = Rng.float g 1.0 < p

let extra_delay g p =
  (* always draw, so the stream position per transmission is fixed
     whatever the probabilities — then apply conditionally *)
  let amount = if p.delay_max > 0 then Rng.int g (p.delay_max + 1) else 0 in
  if flip g p.delay_p then amount else 0
