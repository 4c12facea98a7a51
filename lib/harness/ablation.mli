(** Ablation studies over the design choices DESIGN.md calls out:
    the single-writer optimization (paper section 3.1.1), the early
    read-invalidation acknowledgement (section 4.2.4 "future work"),
    page size, and inter-SSMP latency.

    Each study runs one workload over the cluster-size sweep under the
    variants and reports the runtime curves side by side. *)

type variant = {
  label : string;
  page_words : int;
  lan_latency : int;
  features : Mgs.State.features;
  protocol : string;  (** a {!Mgs.Protocol} registry name, e.g. ["mgs"] *)
  tlb_entries : int option;
  adapt : bool;  (** adaptive per-page coherence ({!Mgs_cache.Adapt}) *)
}

val baseline : variant
(** 1 KB pages, 1000-cycle LAN, paper-default features. *)

val run :
  ?clusters:int list ->
  ?jobs:int ->
  ?par:int ->
  nprocs:int ->
  variants:variant list ->
  Sweep.workload ->
  string
(** Run the workload under every variant; render a table with one
    runtime column per variant plus the framework metrics per variant.
    [jobs] (default 1) fans the variant x cluster grid out over a domain
    pool; [par] (default 1) runs the event engine inside each cell on
    that many domains (one for zero-latency variants, which have no
    lookahead window); the rendered table is identical for any [jobs]
    or [par]. *)

val protocol_study : unit -> variant list
(** MGS's eager multiple-writer RC protocol vs home-based lazy release
    consistency vs the Ivy single-writer SC baseline. *)

val single_writer_study : unit -> variant list
(** Baseline vs single-writer optimization disabled. *)

val pipelined_release_study : unit -> variant list
(** Table 1's one-REL-at-a-time release vs overlapping all of a
    release's epochs. *)

val early_ack_study : unit -> variant list
(** Baseline vs early read-invalidation acknowledgement enabled. *)

val page_size_study : unit -> variant list
(** 512 B / 1 KB / 2 KB / 4 KB pages. *)

val latency_study : unit -> variant list
(** 0 / 1000 / 4000 / 16000-cycle inter-SSMP latency. *)

val tlb_study : unit -> variant list
(** Unbounded vs finite software TLBs (capacity misses refill from the
    local page table at the Table 3 fill cost). *)

val adapt_study : unit -> variant list
(** Static vs adaptive coherence, under both the MGS and HLRC
    protocols: online sharing-pattern classification, regime switching
    (MGS only), and home migration. *)
