type engine = Local_client | Remote_client | Server | Network | Sync

type t = {
  time : int;
  engine : engine;
  tag : string;
  vpn : int;
  src : int;
  dst : int;
  src_ssmp : int;
  dst_ssmp : int;
  words : int;
  cost : int;
  dur : int;
  txn : int;
}

let engine_name = function
  | Local_client -> "local-client"
  | Remote_client -> "remote-client"
  | Server -> "server"
  | Network -> "network"
  | Sync -> "sync"

let engines = [| Local_client; Remote_client; Server; Network; Sync |]

let engine_index = function
  | Local_client -> 0
  | Remote_client -> 1
  | Server -> 2
  | Network -> 3
  | Sync -> 4

let engine_of_index i = engines.(i)

let pp ppf e =
  Format.fprintf ppf "[t=%d %s] %s vpn=%d %d(%d)->%d(%d) words=%d cost=%d dur=%d txn=%d"
    e.time (engine_name e.engine) e.tag e.vpn e.src e.src_ssmp e.dst e.dst_ssmp e.words
    e.cost e.dur e.txn
