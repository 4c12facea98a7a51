(** A conventional sequentially-consistent, single-writer page protocol
    (Ivy / Li-Hudak style), as the software-DSM baseline MGS's
    multiple-writer release-consistent protocol is designed to beat.

    At most one SSMP holds a page with write privilege at any time; any
    number may hold read copies.  A write fault invalidates every copy
    and transfers exclusive ownership; a read fault downgrades the owner
    (which writes the page back and keeps a read copy).  There are no
    twins, diffs, or delayed update queues — and therefore no release
    operations: synchronization objects need no memory flushes.

    Selected with [Machine.config ~protocol:Protocol_ivy]; the ablation
    benches compare it against MGS on the paper's workloads, where
    false sharing makes pages ping-pong.  {!Protocol.fault} runs the
    shared fault steps and calls {!drop_copy} and {!request} for the
    Ivy ones. *)

val request :
  State.t -> proc:int -> vpn:int -> write:bool -> frame:Mgs_mem.Pagedata.page option -> unit
(** Ask the home for [vpn]: shared for a read, exclusive for a write,
    carrying the SSMP's retired [frame] for the home to fill.  The grant
    handler installs the copy and resumes the fiber parked in BUSY. *)

val drop_copy : State.t -> proc:int -> State.centry -> unit
(** A write to a read-shared page: drop the SSMP's copy (local TLB
    shoot-down and cache scrub), parking its frame for the exclusive
    fetch that follows.  Fiber context, mapping lock held. *)
