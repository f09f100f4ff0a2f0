(** The cycle scheduler: builds a machine instance (cores wired to the
    cache hierarchy and flat memory through a {!Fscope_cpu.Mem_port})
    and drives the three-phase step protocol.

    Two loops share that setup.  {!run} is the event-horizon
    fast-forward engine: each sub-step reports whether it changed
    pipeline state, and a core whose whole cycle made no progress is
    frozen — nothing can change its state before its earliest
    scheduled completion ({!Fscope_cpu.Core.next_wake}), no matter
    what other cores do meanwhile.  The engine puts such a core to
    sleep until that horizon, replaying the skipped span's
    stall/occupancy accounting in O(1), and steps only awake cores;
    when every core sleeps, the clock jumps straight to the earliest
    wake-up.  Results (cycle counts, every stats field, final memory,
    metrics) are bit-identical to stepping each core every cycle.
    {!run_naive} is the retained reference loop, kept for differential
    testing and as the baseline the bench harness quotes speedups
    against. *)

type spin_stats = {
  mutable sleeps : int;
  mutable cycles_skipped : int;
  mutable wakes : int;
}
(** Spin fast-forward bookkeeping: how often a provably-stable spin
    loop was put to sleep, how many of its cycles were replayed in
    closed form instead of stepped, and how many sleeps ended in a
    cross-core wake (the rest ran into the cycle limit).  Always zero
    for {!run_naive}, for traced runs, and with
    [Exec_config.spin_fastforward] off. *)

type raw = {
  cycles : int;
  timed_out : bool;
  cores : Fscope_cpu.Core.t array;
  mem : int array;
  hierarchy : Fscope_mem.Hierarchy.t;
  spin : spin_stats;
  windows : (int * int) list;
      (** a sampled run's measured detailed windows, as inclusive
          [start, end] cycle ranges in run order ([[]] otherwise) —
          the latency extraction uses these to keep only event pairs
          whose endpoints both fall inside one measured window *)
}

val run :
  ?obs:Fscope_obs.Trace.t ->
  ?checkpoint:int * (Checkpoint.t -> unit) ->
  ?resume:Checkpoint.t ->
  Config.t ->
  Fscope_isa.Program.t ->
  raw
(** Event-horizon fast-forward loop.  Results are bit-identical to
    {!run_naive} except for the spin fast-forward counters, which
    every consumer treats as engine diagnostics.

    [checkpoint:(every, sink)]: capture a whole-machine checkpoint at
    the top of the first visited cycle at or past each multiple of
    [every] and hand it to [sink].  [resume]: start from a checkpoint
    instead of cycle 0 (digest-validated; [Failure] on mismatch).
    Untraced runs only.

    With [Config.sampling = Some _] the run is dispatched to
    {!run_sampled}; combining sampling with checkpointing is
    [Invalid_argument]. *)

val run_sampled :
  ?obs:Fscope_obs.Trace.t -> Config.t -> Fscope_isa.Program.t -> Config.sampling -> raw
(** SMARTS-style interval sampling: measured detailed windows
    alternate with functional fast-forward, and cycle-valued metrics
    (CPI leaves, mispredicts, occupancy, cache stats, [cycles]) are
    scaled by committed-instruction coverage at the end.  Exact event
    counters (committed / memory / fence / load / store / CAS /
    branch counts, final memory) remain exact.  Deterministic, but an
    estimate — the sampled harness bounds the per-metric error.

    Traced runs are allowed since the windows record their cycle
    ranges ([raw.windows]): they advance the trace clock only while
    stepping detailed cycles, which is what the sampled latency
    extraction consumes.  Spin fast-forward stays
    off inside windows.  The detailed->functional transition settles
    rather than flushing blindly: a core flushes only once
    {!Fscope_cpu.Core.flushable} holds (no completed CAS still in its
    ROB — its RMW already hit memory and must not be re-applied
    functionally) and is parked while stragglers step detailed to
    their own flush points. *)

val run_naive : ?obs:Fscope_obs.Trace.t -> Config.t -> Fscope_isa.Program.t -> raw
(** The naive one-cycle-at-a-time reference loop. *)
