(* Counter columns: indices into the per-SSMP [int array] rows that
   protocol and synchronization code bump through [State.count]. *)
let tlb_local_fills = 0
let read_fetches = 1
let write_fetches = 2
let upgrades = 3
let releases = 4
let release_ops = 5
let invals = 6
let one_winvals = 7
let pinvs = 8
let diffs = 9
let diff_words = 10
let one_wdata = 11
let one_wclean = 12
let acks = 13
let syncs = 14
let sync_wait = 15
let rel_wait = 16
let fetch_wait = 17
let upgrade_wait = 18
let lock_msgs = 19
let lock_handoffs = 20
let lock_wait = 21
let adapt_reclass = 22
let adapt_migs = 23
let adapt_fwds = 24
let adapt_yields = 25
let adapt_res_mw = 26
let adapt_res_sw = 27
let adapt_res_inv = 28
let lock_acquires = 29
let lock_hits = 30
let barrier_episodes = 31
(* gauges: up and down counts the metrics sampler reads *)
let pages_inv = 32
let pages_read = 33
let pages_write = 34
let pages_busy = 35
let rel_in_prog = 36
let lock_waiters = 37
let ncols = 38

type t = {
  tlb_local_fills : int;
  read_fetches : int;
  write_fetches : int;
  upgrades : int;
  releases : int;
  release_ops : int;
  invals : int;
  one_winvals : int;
  pinvs : int;
  diffs : int;
  diff_words : int;
  one_wdata : int;
  one_wclean : int; (* 1WCLEAN replies: retained page already in sync *)
  acks : int;
  syncs : int; (* SYNC messages (arc-12 deferred completions) *)
  sync_wait : int; (* cycles spent awaiting SYNC acknowledgements *)
  rel_wait : int; (* cycles releasers spent awaiting RACKs *)
  fetch_wait : int; (* cycles faulting fibers spent awaiting page data *)
  upgrade_wait : int; (* cycles spent awaiting UP_ACK *)
  (* reliable-transport counters, nonzero only under a fault plan *)
  net_retries : int; (* LAN retransmission attempts *)
  net_dups : int; (* received copies discarded by dedup *)
  net_timeouts : int; (* retransmission timer expiries *)
  (* synchronization counters, nonzero only when registry locks run *)
  lock_msgs : int; (* lock-protocol messages (LK_*, MCS_*, ...) *)
  lock_handoffs : int; (* ownership transfers between holders *)
  lock_wait : int; (* cycles fibers spent blocked in acquire *)
  (* adaptive-coherence counters, nonzero only under --adapt *)
  adapt_reclass : int; (* regime switches (lattice steps) *)
  adapt_migs : int; (* home migrations *)
  adapt_fwds : int; (* requests forwarded from a former home *)
  adapt_yields : int; (* twinless write copies shipped whole on recall *)
  adapt_res_mw : int; (* decision windows resident in each regime *)
  adapt_res_sw : int;
  adapt_res_inv : int;
}

let snapshot total ~net_retries ~net_dups ~net_timeouts =
  {
    tlb_local_fills = total tlb_local_fills;
    read_fetches = total read_fetches;
    write_fetches = total write_fetches;
    upgrades = total upgrades;
    releases = total releases;
    release_ops = total release_ops;
    invals = total invals;
    one_winvals = total one_winvals;
    pinvs = total pinvs;
    diffs = total diffs;
    diff_words = total diff_words;
    one_wdata = total one_wdata;
    one_wclean = total one_wclean;
    acks = total acks;
    syncs = total syncs;
    sync_wait = total sync_wait;
    rel_wait = total rel_wait;
    fetch_wait = total fetch_wait;
    upgrade_wait = total upgrade_wait;
    net_retries;
    net_dups;
    net_timeouts;
    lock_msgs = total lock_msgs;
    lock_handoffs = total lock_handoffs;
    lock_wait = total lock_wait;
    adapt_reclass = total adapt_reclass;
    adapt_migs = total adapt_migs;
    adapt_fwds = total adapt_fwds;
    adapt_yields = total adapt_yields;
    adapt_res_mw = total adapt_res_mw;
    adapt_res_sw = total adapt_res_sw;
    adapt_res_inv = total adapt_res_inv;
  }

let pp ppf t =
  Format.fprintf ppf
    "tlb_fills=%d rreq=%d wreq=%d upgrades=%d rel=%d rel_ops=%d inv=%d 1winv=%d pinv=%d \
     diffs=%d diff_words=%d 1wdata=%d 1wclean=%d acks=%d"
    t.tlb_local_fills t.read_fetches t.write_fetches t.upgrades t.releases t.release_ops
    t.invals t.one_winvals t.pinvs t.diffs t.diff_words t.one_wdata t.one_wclean t.acks;
  Format.fprintf ppf " syncs=%d sync_wait=%d rel_wait=%d fetch_wait=%d upgrade_wait=%d"
    t.syncs t.sync_wait t.rel_wait t.fetch_wait t.upgrade_wait;
  (* a perfect wire prints exactly as before faults existed *)
  if t.net_retries <> 0 || t.net_dups <> 0 || t.net_timeouts <> 0 then
    Format.fprintf ppf " net_retries=%d net_dups=%d net_timeouts=%d" t.net_retries t.net_dups
      t.net_timeouts;
  (* a run without registry locks prints exactly as before they existed *)
  if t.lock_msgs <> 0 || t.lock_handoffs <> 0 || t.lock_wait <> 0 then
    Format.fprintf ppf " lock_msgs=%d lock_handoffs=%d lock_wait=%d" t.lock_msgs
      t.lock_handoffs t.lock_wait;
  (* a static-protocol run prints exactly as before --adapt existed *)
  if
    t.adapt_reclass <> 0 || t.adapt_migs <> 0 || t.adapt_fwds <> 0
    || t.adapt_yields <> 0 || t.adapt_res_mw <> 0 || t.adapt_res_sw <> 0
    || t.adapt_res_inv <> 0
  then
    Format.fprintf ppf
      " adapt_reclass=%d adapt_migs=%d adapt_fwds=%d adapt_yields=%d \
       adapt_res=%d/%d/%d"
      t.adapt_reclass t.adapt_migs t.adapt_fwds t.adapt_yields t.adapt_res_mw
      t.adapt_res_sw t.adapt_res_inv
