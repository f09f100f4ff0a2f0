(** One simulated out-of-order core.

    The pipeline model: a front end that fetches and dispatches along
    the predicted path into the ROB, register renaming with
    per-branch checkpoints, out-of-order issue with conservative
    memory disambiguation and store-to-load forwarding, in-order
    commit, and a store buffer that drains to the memory system out
    of order (W->W relaxation).  Loads read their value when the
    access completes in the memory system, stores become globally
    visible when their store-buffer entry completes — together this
    yields an RMO-like machine in which fences are meaningful.

    Memory is reached exclusively through a {!Mem_port}: the core
    issues typed transactions (read / write / rmw) and receives
    absolute completion cycles; it never sees the cache hierarchy or
    the flat memory image directly.  The stages themselves live in the
    [Core_frontend] / [Core_issue] / [Core_commit] / [Core_exec]
    submodules over a shared [Core_state] record; this module is the
    facade the machine layer drives.

    Fence handling follows the paper:
    - without in-window speculation, a dispatched fence blocks the
      issue of younger loads and CAS operations until every older
      in-scope access has completed ([`Global] scope = all of them
      plus a drained store buffer);
    - with in-window speculation (T+/S+), fences never block issue;
      the condition is checked when the fence reaches the commit
      point, against the store buffer's fence scope bits.

    The machine drives each core with three sub-steps per cycle, in
    this order across all cores: [step_complete_writes] (stores and
    CAS results become visible), [step_complete_reads] (loads sample
    memory), [step_pipeline] (commit, issue, resolve, fetch).  That
    phase split makes same-cycle cross-core interactions
    deterministic.  Each sub-step returns whether it changed pipeline
    state beyond per-cycle stall accounting; the {!Fscope_machine}
    engine uses that, together with {!next_wake} and
    {!account_stall_span}, to fast-forward over spans in which no core
    can make progress. *)

type stats = {
  committed : int;
  stall_rob_load : int;
      (** head-fence stall cycles attributable to an incomplete in-ROB
          load or CAS inside the fence's wait set *)
  stall_rob_store : int;  (** ... to a store not yet in the store buffer *)
  stall_sb : int;  (** ... to store-buffer drain *)
  committed_mem : int;
  committed_fences : int;
  fence_stall_cycles : int;
      (** cycles the commit head was blocked by a fence whose scope
          condition was not yet satisfied *)
  sb_stall_cycles : int;  (** commit blocked by a full store buffer *)
  branches : int;
  mispredicts : int;
  loads : int;
  stores : int;
  cas_ops : int;
  rob_occupancy_sum : int;  (** sampled once per active cycle *)
  active_cycles : int;
}
(** A point-in-time snapshot.  Since PR 3 the stall fields are derived
    views over the core's CPI table (see {!cpi}): [fence_stall_cycles]
    is the sum of the six [Fence_wait] leaves, [stall_rob_load] /
    [stall_rob_store] / [stall_sb] its per-cause sums, and
    [sb_stall_cycles] the [Sb_full] leaf. *)

type t

val create :
  ?trace:Fscope_obs.Trace.t ->
  id:int ->
  code:Fscope_isa.Instr.t array ->
  port:Mem_port.t ->
  scope_config:Fscope_core.Scope_unit.config ->
  exec_config:Exec_config.t ->
  unit ->
  t
(** [port] is the core's only window onto the memory system (timing
    and data); the machine layer builds it from the concrete
    hierarchy.  [trace] (default: the disabled
    {!Fscope_obs.Trace.null}) threads the observability collector
    through the core's ROB, store buffer and scope unit, and makes the
    core itself emit fence-stall begin/end and CAS success/failure
    events plus per-cycle ROB / store-buffer occupancy gauges.
    Emission never feeds back into pipeline state, so a traced run is
    cycle-identical to an untraced one. *)

val id : t -> int
val halted : t -> bool
(** True once the core committed a [Halt]. *)

val drained : t -> bool
(** True when, additionally, the store buffer is empty — the core's
    effects are all globally visible. *)

val stats : t -> stats

val cpi : t -> Fscope_obs.Cpi.t
(** A copy of the core's cycle-accounting table.  Invariant:
    [Cpi.total (cpi t) = (stats t).active_cycles] — every active
    cycle is charged to exactly one leaf.  Identical between the
    fast-forward engine and the naive reference loop. *)

val scope_unit : t -> Fscope_core.Scope_unit.t

val step_complete_writes : t -> cycle:int -> bool
(** Apply store-buffer drains and CAS read-modify-writes due this
    cycle to shared memory.  Returns whether anything completed. *)

val step_complete_reads : t -> cycle:int -> bool
(** Complete loads due this cycle: sample shared memory (or keep the
    forwarded value) and mark them done.  Returns whether anything
    completed. *)

val step_pipeline : t -> cycle:int -> bool
(** Resolve branches, commit, issue, fetch/dispatch; also performs the
    per-cycle activity accounting (active cycles, occupancy sums and
    gauges, stall attribution).  Returns whether any pipeline state
    changed beyond that accounting — [false] means the cycle was a
    pure stall and the core is frozen until {!next_wake}. *)

val next_wake : t -> cycle:int -> int option
(** The earliest cycle strictly after [cycle] at which this core's
    state can change: the minimum over in-flight execution completion
    cycles, store-buffer completion times and a pending
    mispredict-resume point.  [None] means nothing is scheduled — the
    core cannot change state again on its own (it is drained, or stuck
    until [max_cycles]).  Sound for fast-forwarding only from a frozen
    state, i.e. after a cycle in which every step reported no
    progress. *)

val account_stall_span : t -> cycle:int -> cycles:int -> unit
(** Replay the per-cycle accounting of the [cycles] consecutive
    no-progress cycles after [cycle] in O(1): active cycles,
    ROB-occupancy sum, occupancy gauges, and the CPI-leaf charge
    (fence-wait cause, store-buffer-full, memory level, branch-flush /
    frontend-empty split, execution dependence), exactly as if
    [step_pipeline] had run that many more pure-stall cycles.  The
    engine calls this for the span it skips between a frozen cycle
    ([cycle] itself, already stepped) and the next wake-up. *)

(** {2 Spin fast-forward}

    A complementary engine optimisation for cores that DO make progress
    but only to spin: when the commit stream keeps re-taking the same
    backward edge and the complete pipeline state at consecutive loop
    boundaries is identical up to a uniform cycle shift, the core's
    future is periodic until another core writes (or steals) one of the
    cache lines the loop reads.  The probe proves that stability, hands
    the engine a {!spin_stable} certificate, and {!spin_replay} later
    accounts any number of skipped periods in closed form — the engine
    stays bit-identical to naive stepping. *)

type spin_stable = Core_state.stable = {
  armed_cycle : int;  (** the loop boundary at which stability was proven *)
  period : int;  (** cycles per loop iteration (boundary to boundary) *)
  d_counts : int array;  (** per-period commit-counter deltas *)
  d_cpi : int array;  (** per-period CPI-leaf deltas *)
  loads_per_period : int;  (** L1-hit loads issued per period *)
  footprint : int list;  (** word addresses the loop reads — the watch set *)
}

val set_spin_ff : t -> bool -> unit
(** Enable the stability probe.  Off by default; the engine turns it on
    for untraced runs with [Exec_config.spin_fastforward].  The probe
    never changes architectural or timing state — only whether
    {!spin_poll} can ever return a certificate. *)

val spin_poll : t -> cycle:int -> spin_stable option
(** Consume the certificate armed at exactly [cycle], if any.  The
    engine calls this after a progress cycle; [Some] means the core may
    be put to sleep at the end of [cycle] with its state frozen. *)

val spin_cancel : t -> unit
(** Drop all probe state (on wake-up, or any time the chain must not
    survive external interaction).  Re-arming requires three fresh
    clean loop boundaries. *)

val spin_replay : t -> stable:spin_stable -> k:int -> unit
(** Account [k] whole skipped periods in closed form: commit counters
    and CPI leaves advance by [k] times their per-period delta, and
    in-flight completion cycles plus a pending fetch-resume point shift
    by [k * period].  Afterwards the core's state is exactly what
    [k * period] naive steps from [armed_cycle] would have produced. *)

(** {2 Whole-core checkpointing}

    Unlike the spin probe's relativized snapshot, a checkpoint keeps
    every cycle- and seq-valued field ABSOLUTE: it is taken at the top
    of the engine's cycle loop and restored into a machine rebuilt at
    the same cycle.  Instructions are never serialized — ROB entries
    record their pc and restore re-reads the code image (the
    machine-level digest check guarantees it is the same program). *)

val snapshot : t -> Fscope_util.Json.t
(** Serialize the complete core state: fetch state, ARF, rename map,
    ROB (absolute seqs and deadlines), store buffer, branch predictor,
    commit counters, CPI table, spin-detection state and the scope
    unit.  The core must be untraced and hold no armed spin
    certificate (the engine force-wakes sleepers before capturing). *)

val restore : t -> Fscope_util.Json.t -> unit
(** Inverse of {!snapshot} into a core created over the same code
    image and configs; raises [Failure] on malformed or mismatched
    input.  The spin probe comes back clean (re-arming needs fresh
    loop boundaries, which never affects bit-identity). *)

val traced : t -> bool
(** Was the core created with a live trace?  Checkpointing and sampled
    mode are untraced-run facilities. *)

val rob : t -> Rob.t
(** The core's reorder buffer, for inspection (tests, debugging).
    Mutating it from outside voids every guarantee of this module. *)

(** {2 Interval sampling}

    The sampled engine alternates detailed windows (ordinary cycle
    stepping) with functional fast-forward.  [flush_arch] collapses
    the core to architectural state at a detailed->functional
    transition; {!func_step} then interprets one instruction per call;
    [reseed_scope] rebuilds the scope unit when detail resumes; the
    counter snapshot pair erases warmup accounting; [extrapolate]
    scales the measured micro-architectural metrics to the whole run
    at the end. *)

val flushable : t -> bool
(** No completed-but-uncommitted CAS in the ROB.  A CAS performs its
    RMW at completion, before commit: once [Done] its memory write has
    already happened, and discarding the entry in {!flush_arch} would
    let {!func_step} apply it a second time.  The sampled engine steps
    a core detailed until this holds (a completed CAS is
    non-speculative and commits within bounded cycles), then
    flushes. *)

val flush_arch : t -> unit
(** Drain the store buffer to memory (FIFO order), discard all
    speculative work (ROB, rename map, pending fetch-resume), set the
    fetch pc to the architectural pc (ROB head, or the fetch pc when
    the window was empty) and drop spin-probe state.  Timing state —
    predictor, caches — is deliberately left warm.  Only sound when
    {!flushable} holds. *)

val park : t -> unit
val unpark : t -> unit
(** Fetch suppression around the flush settle loop: a freshly flushed
    core is parked so stepping it is a no-op while slower cores reach
    their own flush points, then unparked before the functional
    leg. *)

val func_step : t -> bool
(** Execute one instruction architecturally: ARF and memory image
    only, stores immediately visible, fences no-ops.  Exact event
    counters (commits, memory ops, fences, loads, stores, CAS,
    branches) advance; micro-architectural metrics do not.  Returns
    [false] when the core cannot progress (halted or pc off the code
    image). *)

val reseed_scope : t -> unit
(** Reset the scope unit and replay the committed scope nesting
    (outermost first) via [fs_start], as tracked across both execution
    modes. *)

val counters_snapshot : t -> int array * int array
val counters_restore : t -> int array * int array -> unit
(** Save / restore the micro-architectural accounting only
    (mispredicts, ROB-occupancy sum, active cycles, CPI leaves): the
    engine brackets each detailed warmup with these so warmup cycles
    keep the pipeline warm without polluting the measured window. *)

val extrapolate : t -> total:int -> measured:int -> unit
(** Scale every cycle-valued metric by [total / measured] (committed
    instructions overall vs inside measured windows), re-deriving
    [active_cycles] as the sum of the scaled CPI leaves so the
    leaves-sum-to-active invariant survives.  No-op when [measured] is
    zero or covers the whole run. *)
