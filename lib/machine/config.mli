(** Whole-machine configuration: pipeline, memory system, S-Fence
    hardware, and the run's safety limit.

    Build configurations with the keyword constructor {!v}, which
    subsumes the older accreted [with_*] builder chain: every [with_*]
    combinator is now a one-option special case of {!v} and is kept
    only so existing call sites stay source-compatible.  The record
    type stays exposed for pattern matching, but prefer {!v} over
    direct record construction or record-update syntax — new fields
    then never break call sites. *)

(** Which backend answers the cores' memory transactions. *)
type mem_model =
  | Hierarchy  (** the MSI-coherent L1/L2/memory model (Table III) *)
  | Ideal
      (** every access completes the next cycle — an idealized memory
          with no caches or coherence traffic; useful to isolate
          pipeline effects from memory-system effects *)

(** SMARTS-style interval sampling (DESIGN §15).  The engine
    alternates measured detailed windows with functional fast-forward
    and extrapolates cycle-valued metrics from the measured fraction;
    exact event counters stay exact.  Estimates, not bit-identity —
    the sampled harness tests bound the per-metric error. *)
type sampling = {
  warmup : int;
      (** detailed cycles run before each measured window to re-warm
          pipeline state; their accounting is erased *)
  detailed : int;  (** measured detailed cycles per window *)
  ff_instrs : int;
      (** committed instructions each core fast-forwards functionally
          between windows *)
}

val sampling_validate : sampling -> unit
(** Raises [Invalid_argument] unless the detailed window and the
    fast-forward count are positive and the warmup is non-negative;
    {!make} and {!v} run it on every sampling they are given. *)

val sampling_default : sampling
(** 500 warmup / 1k detailed / 20k fast-forward — many short windows
    at roughly a 5%% measured duty cycle, which samples phases densely
    and keeps the sampled execution from drifting far from the
    detailed dynamics between measurements. *)

type t = {
  exec : Fscope_cpu.Exec_config.t;
  mem : Fscope_mem.Hierarchy.config;
  mem_model : mem_model;
  scope : Fscope_core.Scope_unit.config;
  max_cycles : int;  (** runaway guard; a run reaching it is reported as timed out *)
  sampling : sampling option;
      (** [Some _] selects the sampled engine; [None] (the default) is
          exact detailed simulation. *)
}

val make :
  ?exec:Fscope_cpu.Exec_config.t ->
  ?mem:Fscope_mem.Hierarchy.config ->
  ?mem_model:mem_model ->
  ?scope:Fscope_core.Scope_unit.config ->
  ?max_cycles:int ->
  ?sampling:sampling ->
  unit ->
  t

val mem_model_name : mem_model -> string
(** ["hierarchy"] / ["ideal"] — the [--mem-model] CLI vocabulary. *)

val mem_model_of_string : string -> mem_model option
(** Every omitted section takes its Table III default; [make ()] is
    {!default}. *)

val default : t
(** The paper's Table III machine: 8-core runs use this per-core
    configuration — ROB 128, 32 KB L1 (2 cycles), 1 MB shared L2
    (10 cycles), 300-cycle memory, 4 FSB entries, 4 FSS entries,
    S-Fence hardware enabled, no in-window speculation. *)

val v :
  ?base:t ->
  ?sfence:bool ->
  ?speculation:bool ->
  ?nop_fences:bool ->
  ?spin_fastforward:bool ->
  ?mem_model:mem_model ->
  ?mem_latency:int ->
  ?rob_size:int ->
  ?fsb_entries:int ->
  ?fss_entries:int ->
  ?mt_entries:int ->
  ?max_cycles:int ->
  ?shard_domains:int ->
  ?sampling:sampling option ->
  unit ->
  t
(** The one keyword constructor: start from [base] ({!default} when
    omitted) and override exactly the named knobs.

    - [sfence]: S-Fence hardware on (S) / off — every fence behaves as
      a traditional full fence (baseline T);
    - [speculation]: in-window speculation (the + variants;
      timing-only, validation is skipped on speculative runs);
    - [nop_fences]: the no-fence ablation — fences retire immediately
      and order nothing (timing-only upper bound);
    - [spin_fastforward]: the engine's spin sleep/replay optimisation
      (bit-identical results either way, wall-clock only);
    - [mem_model], [mem_latency], [rob_size], [fsb_entries],
      [fss_entries], [mt_entries], [max_cycles]: as the record fields;
    - [shard_domains]: exists only so [perfbench/bench.ml], which
      passes [~shard_domains:1], still compiles.  It is stored
      nowhere: 1 is accepted, any other value raises
      [Invalid_argument].

    Omitted arguments keep the base's value, so refinements compose:
    [v ~base:(v ~sfence:false ()) ~mem_latency:500 ()].  Every
    [with_*] builder below is a one-option special case of [v], kept
    for source compatibility. *)

val traditional : t -> t
(** The same machine with the S-Fence hardware disabled: every fence
    behaves as a traditional full fence (baseline T). *)

val scoped : t -> t
(** With the S-Fence hardware enabled (S). *)

val with_speculation : bool -> t -> t
(** Toggle in-window speculation (the + variants). *)

val with_nop_fences : bool -> t -> t
(** Toggle the no-fence ablation: fences retire immediately and order
    nothing.  Timing-only — functional checks may fail — but it bounds
    what any fence optimisation could recover, which is the profiler's
    "where the fence time goes" denominator. *)

val with_mem_latency : int -> t -> t
(** Set the memory (DRAM) latency — Fig. 15's sweep. *)

val with_rob_size : int -> t -> t
(** Set the ROB size — Fig. 16's sweep. *)

val with_fsb_entries : int -> t -> t
(** Set the number of FSB columns — ablation. *)

val with_fss_entries : int -> t -> t
(** Set the FSS depth — ablation. *)

val with_mt_entries : int -> t -> t
(** Set the mapping-table capacity — ablation. *)

val with_max_cycles : int -> t -> t
(** Set the runaway guard. *)

val with_mem_model : mem_model -> t -> t
(** Select the memory backend behind the cores' {!Fscope_cpu.Mem_port}. *)

val with_spin_fastforward : bool -> t -> t
(** Toggle the engine's spin fast-forward (default on; off = the
    engine steps spinning cores cycle by cycle as before).  Results
    are bit-identical either way — this only trades wall-clock. *)

val with_sampling : sampling option -> t -> t
(** Select ([Some]) or clear ([None]) interval sampling. *)
