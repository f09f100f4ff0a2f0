(** The multicore machine: one core per program thread, private L1s,
    a shared L2, flat shared memory, and a global cycle scheduler.

    Per cycle the machine advances every core through three phases in
    a fixed order — store/CAS completions become visible, then load
    completions sample memory, then the pipelines step — which makes
    same-cycle cross-core interactions deterministic.  The whole run
    is therefore a pure function of (program, config).

    The default {!run} drives the {!Sim_engine} event-horizon
    fast-forward loop, which skips stepping any core over a span in
    which it is provably frozen and jumps the clock when every core
    is; {!run_reference} retains the naive one-cycle-at-a-time loop.
    The two are bit-identical in every [result] field — the
    differential test suite enforces this. *)

type spin_ff = {
  sleeps : int;  (** times the engine put a core into spin-sleep *)
  cycles_skipped : int;  (** core-cycles replayed in closed form *)
  wakes : int;  (** sleeps ended by a cross-core store or invalidation *)
}
(** Spin fast-forward counters of the run (see
    [Exec_config.spin_fastforward]).  All zero under {!run_reference},
    on traced runs (tracing disables the optimisation), or when the
    workload never reached a stable spin.  Deliberately NOT part of the
    bit-identity contract between the two loops — they describe how the
    engine got to the result, not the result. *)

type result = {
  cycles : int;  (** cycle at which every core had halted and drained *)
  timed_out : bool;  (** the run hit [max_cycles] before finishing *)
  core_stats : Fscope_cpu.Core.stats array;
  core_cpi : Fscope_obs.Cpi.t array;
      (** per-core cycle accounting: every active cycle charged to one
          {!Fscope_obs.Cpi.leaf}; per core the leaves sum to that
          core's [active_cycles].  Bit-identical between {!run} and
          {!run_reference}. *)
  mem : int array;  (** final shared memory, for functional self-checks *)
  cache : Fscope_mem.Hierarchy.stats;
  spin : spin_ff;
  sample_windows : (int * int) list;
      (** a sampled run's measured detailed windows as inclusive
          [start, end] cycle ranges ([[]] otherwise); the sampled
          latency extraction keeps only inject→retire pairs whose
          endpoints fall inside one window *)
  obs : Fscope_obs.Report.t option;
      (** present iff the run was traced; carries the event stream and
          the metrics registry (which includes a snapshot of every
          legacy stat under [core<i>/...], [mem/...], [engine/...],
          [total/...]) *)
}

val run :
  ?obs:Fscope_obs.Trace.t ->
  ?checkpoint:int * (Checkpoint.t -> unit) ->
  ?resume:Checkpoint.t ->
  Config.t ->
  Fscope_isa.Program.t ->
  result
(** [obs] (default: the disabled {!Fscope_obs.Trace.null}) collects
    the typed event stream and metrics of the run; pass a live
    {!Fscope_obs.Trace.create} to get [result.obs].  Tracing is
    timing-neutral: the cycle count of a traced run is bit-identical
    to an untraced one.

    [checkpoint:(every, sink)] hands [sink] a whole-machine
    {!Checkpoint.t} at (roughly) every [every] cycles; [resume]
    continues a run from such a checkpoint — the resumed run is
    bit-identical to the uninterrupted one.  Both require an untraced
    run; both are rejected ([Invalid_argument]) when [Config.sampling]
    is set.

    With [Config.sampling = Some _] the run uses the interval-sampled
    engine: exact event counters and final memory, ESTIMATED
    cycle-valued metrics (see DESIGN §15); [spin] is then all zero.
    [sample_windows] records the measured windows for the latency
    extraction. *)

val run_reference : ?obs:Fscope_obs.Trace.t -> Config.t -> Fscope_isa.Program.t -> result
(** Same machine, driven by the retained naive per-cycle loop instead
    of the fast-forward engine.  Exists as the differential-testing
    reference and the bench baseline; results are bit-identical to
    {!run}. *)

val fence_stall_cycles : result -> int
(** Sum of per-core commit-head fence stalls. *)

val total_active_cycles : result -> int
(** Sum of per-core active cycles — the denominator used when quoting
    the fence-stall share of execution, as in the paper's stacked
    bars. *)

val fence_stall_fraction : result -> float
(** [fence_stall_cycles / total_active_cycles]. *)

val committed_instrs : result -> int
val avg_rob_occupancy : result -> float
