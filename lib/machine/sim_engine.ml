module Core = Fscope_cpu.Core
module Mem_port = Fscope_cpu.Mem_port
module Exec_config = Fscope_cpu.Exec_config
module Hierarchy = Fscope_mem.Hierarchy
module Program = Fscope_isa.Program
module Obs = Fscope_obs

(* Spin fast-forward bookkeeping of one run (zeros in the naive loop). *)
type spin_stats = {
  mutable sleeps : int;  (** times a core was put into spin-sleep *)
  mutable cycles_skipped : int;  (** core-cycles replayed in closed form *)
  mutable wakes : int;  (** sleeps ended by a cross-core store or invalidation *)
}

let fresh_spin_stats () = { sleeps = 0; cycles_skipped = 0; wakes = 0 }

type raw = {
  cycles : int;
  timed_out : bool;
  cores : Core.t array;
  mem : int array;
  hierarchy : Hierarchy.t;
  spin : spin_stats;
  windows : (int * int) list;
      (* measured detailed windows of a sampled run as inclusive
         [start, end] cycle ranges, in run order; [] otherwise *)
}

let hierarchy_kind = function
  | Mem_port.Read -> Hierarchy.Read
  | Mem_port.Write -> Hierarchy.Write
  | Mem_port.Rmw -> Hierarchy.Rmw

(* One machine instance: cores wired to shared memory through a
   Mem_port whose timing side is either the cache hierarchy or the
   ideal 1-cycle model ([Config.mem_model]).  The returned [on_store]
   ref is called with the address of every memory value write, just
   before the write lands — the engine points it at its spin-sleep
   watch table (it starts out as a no-op). *)
let build ~obs (config : Config.t) program =
  let cores_n = Program.thread_count program in
  let mem = Program.initial_memory program in
  let hierarchy = Hierarchy.create ~trace:obs ~cores:cores_n config.Config.mem in
  let on_store = ref (fun (_ : int) -> ()) in
  let issue =
    match config.Config.mem_model with
    | Config.Hierarchy ->
      fun ~core kind ~addr ~now ->
        let latency, level =
          Hierarchy.access_classified hierarchy ~core (hierarchy_kind kind) ~addr
        in
        (now + latency, level)
    | Config.Ideal ->
      (* every access is a 1-cycle hit; the hierarchy above stays idle
         (its stats remain zero) but still anchors [raw.hierarchy] *)
      fun ~core:_ _kind ~addr:_ ~now -> (now + 1, Obs.Event.L1_hit)
  in
  let port =
    Mem_port.make ~size:(Array.length mem) ~issue
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value ->
        !on_store addr;
        mem.(addr) <- value)
  in
  let cores =
    Array.init cores_n (fun id ->
        Core.create ~trace:obs ~id ~code:program.Program.threads.(id) ~port
          ~scope_config:config.Config.scope ~exec_config:config.Config.exec ())
  in
  (cores, mem, hierarchy, on_store)

(* The three-phase step protocol shared by the sampled and naive
   loops; see Core's interface for why the order matters.  Returns
   whether any core changed state beyond per-cycle stall accounting. *)
let step_all cores ~cycle =
  let progress = ref false in
  Array.iter
    (fun core -> if Core.step_complete_writes core ~cycle then progress := true)
    cores;
  Array.iter
    (fun core -> if Core.step_complete_reads core ~cycle then progress := true)
    cores;
  Array.iter (fun core -> if Core.step_pipeline core ~cycle then progress := true) cores;
  !progress

(* Overwrite a freshly built machine with checkpointed state.  The
   wake array comes back verbatim: frozen cores had their skipped
   spans pre-charged when they froze, so re-deriving horizons here
   would double-charge them.  [drained] is monotonic state
   recomputable from the cores, so it is not serialized;
   [mark_drained] is called for each core that comes back drained.
   Returns the resume cycle. *)
let restore_checkpoint (ck : Checkpoint.t) (config : Config.t) program ~cores ~mem
    ~hierarchy ~wake ~mark_drained =
  let n = Array.length cores in
  Checkpoint.validate ck config program;
  if Array.length ck.Checkpoint.cores <> n then failwith "checkpoint: core count mismatch";
  if Array.length ck.Checkpoint.mem <> Array.length mem then
    failwith "checkpoint: memory size mismatch";
  if Array.length ck.Checkpoint.wake <> n then
    failwith "checkpoint: wake array size mismatch";
  (* Every capture is taken at a cycle boundary with no core scheduled
     in the past, so a negative clock or a wake-up before it can only
     come from an edited or corrupted file. *)
  if ck.Checkpoint.cycle < 0 then
    failwith (Printf.sprintf "checkpoint: negative cycle %d" ck.Checkpoint.cycle);
  Array.iteri
    (fun i w ->
      if w < ck.Checkpoint.cycle then
        failwith
          (Printf.sprintf "checkpoint: core %d wakes at cycle %d, before cycle %d" i w
             ck.Checkpoint.cycle))
    ck.Checkpoint.wake;
  Array.iteri (fun i j -> Core.restore cores.(i) j) ck.Checkpoint.cores;
  Array.blit ck.Checkpoint.mem 0 mem 0 (Array.length mem);
  Hierarchy.restore hierarchy ck.Checkpoint.hierarchy;
  Array.blit ck.Checkpoint.wake 0 wake 0 n;
  for i = 0 to n - 1 do
    if Core.drained cores.(i) then mark_drained i
  done;
  ck.Checkpoint.cycle

let run_sequential ?(obs = Obs.Trace.null) ?checkpoint ?resume (config : Config.t)
    program =
  let cores, mem, hierarchy, on_store = build ~obs config program in
  let n = Array.length cores in
  let traced = Obs.Trace.on obs in
  if traced && (Option.is_some checkpoint || Option.is_some resume) then
    invalid_arg "Sim_engine: checkpointing is an untraced-run facility";
  let max_cycles = config.Config.max_cycles in
  (* Per-core event-horizon scheduling.  A core whose three sub-steps
     all report no progress is frozen: every cycle-dependence of its
     step functions is a threshold already scheduled in its own state
     (execution completions, store-buffer drain times, a fetch-resume
     point), and other cores cannot change any of that — they only
     write shared memory, which a frozen core samples exactly at those
     thresholds, and the cache directory, which only affects the
     latency of accesses it has not issued yet.  So the core sleeps
     until its {!Core.next_wake} horizon: the engine pre-charges the
     skipped span's stall/occupancy accounting in O(1) and stops
     stepping it, while awake cores keep executing cycle by cycle.
     When every core sleeps, the clock jumps straight to the earliest
     wake-up.  Results are bit-identical to the naive loop.

     Draining is monotonic (a halted core stays halted, its emptied
     store buffer stays empty), so a per-core flag plus a counter
     replaces the naive loop's per-cycle every-core [drained] scan. *)
  let wake = Array.make n 0 in
  let progress = Array.make n false in
  let drained = Array.make n false in
  let drained_count = ref 0 in
  let cycle = ref 0 in
  let finished = ref false in
  (match (resume : Checkpoint.t option) with
  | None -> ()
  | Some ck ->
    cycle :=
      restore_checkpoint ck config program ~cores ~mem ~hierarchy ~wake
        ~mark_drained:(fun i ->
          drained.(i) <- true;
          incr drained_count));
  (* Spin fast-forward (see Core's spin interface and DESIGN §11).  A
     core that is provably in a stable read-only spin loop sleeps past
     the horizon: its state can only stop being periodic when another
     core writes — or steals — a line it reads, so we watch the loop's
     load footprint and wake the sleeper the instant such an action is
     about to happen.  On wake (and at timeout) the skipped whole
     periods are replayed in closed form and the partial tail is
     re-stepped normally, which lands the core in exactly the state
     naive stepping would have produced.  Tracing disables this — a
     traced run must emit every per-cycle event. *)
  let spin = fresh_spin_stats () in
  let spin_on = config.Config.exec.Exec_config.spin_fastforward && not traced in
  if spin_on then Array.iter (fun core -> Core.set_spin_ff core true) cores;
  let sleeping : Core.spin_stable option array = Array.make n None in
  (* watched address -> sorted list of sleeping watcher cores (a list,
     not a bitmask, so the machine is not capped at 62 cores) *)
  let watches : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  (* where in the current cycle the step loops are, so a wake fired
     from inside another core's step can splice the sleeper back into
     the phase order it would have had in the naive loop *)
  let phase = ref 0 in
  let phase_core = ref 0 in
  let register_watches i (st : Core.spin_stable) =
    List.iter
      (fun addr ->
        let cur = Option.value (Hashtbl.find_opt watches addr) ~default:[] in
        Hashtbl.replace watches addr (List.sort_uniq compare (i :: cur)))
      st.Core.footprint
  in
  let unregister_watches i (st : Core.spin_stable) =
    List.iter
      (fun addr ->
        match Hashtbl.find_opt watches addr with
        | None -> ()
        | Some l ->
          (match List.filter (fun j -> j <> i) l with
          | [] -> Hashtbl.remove watches addr
          | l' -> Hashtbl.replace watches addr l'))
      st.Core.footprint
  in
  (* Catch a woken sleeper up through cycle [through]: replay whole
     periods in closed form, then solo-step the tail.  Solo-stepping is
     exact because within a period the core touches nothing shared —
     no stores or CAS can be in flight, and every load hits its own
     L1 — so interleaving with other cores' sub-steps is immaterial. *)
  let catch_up i (st : Core.spin_stable) ~through =
    let b = st.Core.armed_cycle in
    let k = if through <= b then 0 else (through - b) / st.Core.period in
    if k > 0 then begin
      Core.spin_replay cores.(i) ~stable:st ~k;
      (match config.Config.mem_model with
      | Config.Hierarchy ->
        (* the skipped loads would all have hit this core's L1 *)
        let s = Hierarchy.stats hierarchy in
        s.Hierarchy.l1_hits <- s.Hierarchy.l1_hits + (k * st.Core.loads_per_period)
      | Config.Ideal -> ());
      spin.cycles_skipped <- spin.cycles_skipped + (k * st.Core.period)
    end;
    for x = b + (k * st.Core.period) + 1 to through do
      ignore (Core.step_complete_writes cores.(i) ~cycle:x);
      ignore (Core.step_complete_reads cores.(i) ~cycle:x);
      ignore (Core.step_pipeline cores.(i) ~cycle:x)
    done;
    Core.spin_cancel cores.(i)
  in
  (* Phase-3 body of the main loop, factored so a phase-3 wake can run
     it for the sleeper at its original position in core order. *)
  let rec step3 i c =
    if Core.step_pipeline cores.(i) ~cycle:c then progress.(i) <- true;
    if progress.(i) then begin
      wake.(i) <- c + 1;
      if (not drained.(i)) && Core.drained cores.(i) then begin
        drained.(i) <- true;
        incr drained_count;
        wake.(i) <- max_cycles
      end
      else if spin_on then begin
        match Core.spin_poll cores.(i) ~cycle:c with
        | Some st ->
          (* proven stable: sleep until a watched line is written or
             invalidated (or the run times out) *)
          sleeping.(i) <- Some st;
          register_watches i st;
          wake.(i) <- max_cycles;
          spin.sleeps <- spin.sleeps + 1
        | None -> ()
      end
    end
    else begin
      (* Frozen: sleep until the horizon (or, with nothing
         scheduled at all, until the run's cycle limit — the core
         is stuck and can only wait out a timeout), charging the
         skipped span's per-cycle accounting up front.  The charge
         is exact: the simulation cannot end before this core's
         wake-up, because a sleeping core is never drained. *)
      let d =
        match Core.next_wake cores.(i) ~cycle:c with
        | Some d -> min d max_cycles
        | None -> max_cycles
      in
      Core.account_stall_span cores.(i) ~cycle:c ~cycles:(d - c - 1);
      wake.(i) <- d
    end
  (* Wake fired from inside the current cycle's step loops, just
     before the disturbing write or invalidation takes effect. *)
  and wake_core i =
    match sleeping.(i) with
    | None -> ()
    | Some st ->
      sleeping.(i) <- None;
      unregister_watches i st;
      Core.spin_cancel cores.(i);
      spin.wakes <- spin.wakes + 1;
      let t = !cycle in
      if t = st.Core.armed_cycle then
        (* disturbed later in the very cycle it armed (by a core after
           it in phase-3 order): nothing was skipped and the core has
           already fully stepped this cycle *)
        wake.(i) <- t + 1
      else begin
        catch_up i st ~through:(t - 1);
        if !phase = 3 then begin
          (* cycle [t]'s write/read phases already passed this core;
             its writes phase is a no-op (empty store buffer, no CAS in
             flight — guaranteed by the arming probe) and completing
             reads now is exact because phase 3 never changes memory
             values.  Then: in the naive loop a core earlier in core
             order would have run its pipeline step before the
             disturber's — replay that ordering here; a later one is
             picked up by the main phase-3 loop as usual. *)
          if Core.step_complete_reads cores.(i) ~cycle:t then progress.(i) <- true;
          if i < !phase_core then step3 i t else wake.(i) <- t
        end
        else begin
          (* phase 1: the disturbing store has not landed yet; the
             remaining phase loops of cycle [t] pick the core up *)
          progress.(i) <- false;
          wake.(i) <- t
        end
      end
  in
  if spin_on then begin
    on_store :=
      (fun addr ->
        match Hashtbl.find_opt watches addr with
        | None -> ()
        | Some l -> List.iter wake_core l (* ascending core order *));
    (* a write/RMW/eviction about to invalidate or downgrade a
       sleeper's L1 line could change what its loop observes (values
       or latencies) — wake it first *)
    Hierarchy.set_remote_victim_hook hierarchy (fun ~core ->
        match sleeping.(core) with Some _ -> wake_core core | None -> ())
  end;
  (* Periodic capture, at the top of the first visited cycle at or
     past each multiple of [every] (the event-horizon clock jumps, so
     exact multiples may never be visited).  Spin sleepers are woken
     and caught up through the previous cycle first — waking is
     bit-identity-neutral (certificates re-arm on fresh boundaries)
     and keeps probe state out of the format. *)
  let ckpt_digest = lazy (Checkpoint.digest config program) in
  let next_ckpt = ref (match checkpoint with Some (every, _) -> !cycle + every | None -> max_int) in
  let capture c sink every =
    for i = 0 to n - 1 do
      match sleeping.(i) with
      | None -> ()
      | Some st ->
        sleeping.(i) <- None;
        unregister_watches i st;
        catch_up i st ~through:(c - 1);
        wake.(i) <- c
    done;
    sink
      {
        Checkpoint.cycle = c;
        digest = Lazy.force ckpt_digest;
        wake = Array.copy wake;
        cores = Array.map Core.snapshot cores;
        mem = Array.copy mem;
        hierarchy = Hierarchy.to_json hierarchy;
      };
    next_ckpt := c + every
  in
  while (not !finished) && !cycle < max_cycles do
    let c = !cycle in
    if traced then Obs.Trace.set_now obs c;
    (match checkpoint with
    | Some (every, sink) when c >= !next_ckpt -> capture c sink every
    | Some _ | None -> ());
    phase := 1;
    for i = 0 to n - 1 do
      phase_core := i;
      progress.(i) <- wake.(i) <= c && Core.step_complete_writes cores.(i) ~cycle:c
    done;
    phase := 2;
    for i = 0 to n - 1 do
      phase_core := i;
      if wake.(i) <= c && Core.step_complete_reads cores.(i) ~cycle:c then
        progress.(i) <- true
    done;
    phase := 3;
    for i = 0 to n - 1 do
      phase_core := i;
      if wake.(i) <= c then step3 i c
    done;
    phase := 0;
    if !drained_count = n then begin
      cycle := c + 1;
      finished := true
    end
    else begin
      (* Next cycle at which anything can happen: awake cores have
         wake = c+1; if everyone sleeps this jumps the clock. *)
      let target = Array.fold_left min max_int wake in
      cycle := max target (c + 1)
    end
  done;
  (* A run that timed out may leave spin-sleepers behind: the naive
     loop would have stepped them through cycle [max_cycles - 1], so
     catch them up to exactly there before reporting. *)
  if !drained_count < n then
    for i = 0 to n - 1 do
      match sleeping.(i) with
      | None -> ()
      | Some st ->
        sleeping.(i) <- None;
        unregister_watches i st;
        catch_up i st ~through:(max_cycles - 1)
    done;
  {
    cycles = !cycle;
    timed_out = !drained_count < n;
    cores;
    mem;
    hierarchy;
    spin;
    windows = [];
  }

(* ------------------------------------------------------------------ *)
(* SMARTS-style interval sampling                                      *)
(* ------------------------------------------------------------------ *)

(* Alternate measured detailed windows with functional fast-forward
   (DESIGN §15).  Exact event counters (commits, memory ops, fences,
   branches, final memory) accumulate across both modes and stay
   exact; cycle-valued metrics (CPI leaves, mispredicts, occupancy,
   cache stats, the cycle count itself) are measured inside the
   detailed windows only and scaled by committed-instruction coverage
   at the end ([Core.extrapolate]).  Deterministic — same config and
   program always produce the same estimate — but an ESTIMATE: the
   sampled harness tests bound the per-metric error against the exact
   engine.

   Structure of one round after the (unwarmed, cold-start-is-real)
   first window:

     flush_arch*  ->  functional FF (ff_instrs per core, round-robin
     one instruction per live core)  ->  reseed_scope*  ->  warmup
     cycles (accounting erased)  ->  measured detailed cycles

   Spin fast-forward stays off: windows are short and bounded, and the
   probe's sleep transitions would complicate window accounting for no
   measurable win. *)
let run_sampled ?(obs = Obs.Trace.null) (config : Config.t) program
    (s : Config.sampling) =
  let cores, mem, hierarchy, _on_store = build ~obs config program in
  let n = Array.length cores in
  let traced = Obs.Trace.on obs in
  let max_cycles = config.Config.max_cycles in
  let hstats = Hierarchy.stats hierarchy in
  let cycle = ref 0 in (* detailed cycles actually simulated *)
  let hstats_snapshot () =
    ( hstats.Hierarchy.l1_hits,
      hstats.Hierarchy.l1_misses,
      hstats.Hierarchy.l2_hits,
      hstats.Hierarchy.l2_misses,
      hstats.Hierarchy.invalidations,
      hstats.Hierarchy.c2c_transfers )
  in
  let hstats_restore (a, b, c, d, e, f) =
    hstats.Hierarchy.l1_hits <- a;
    hstats.Hierarchy.l1_misses <- b;
    hstats.Hierarchy.l2_hits <- c;
    hstats.Hierarchy.l2_misses <- d;
    hstats.Hierarchy.invalidations <- e;
    hstats.Hierarchy.c2c_transfers <- f
  in
  let measured = Array.make n 0 in
  let all_drained () = Array.for_all Core.drained cores in
  let finished = ref false in
  let sampled_any = ref false in
  (* Estimated whole-run cycle count: cores run concurrently from
     cycle 0, so the machine estimate is the slowest core's scaled
     active cycles. *)
  let estimate () =
    let worst = ref 0 in
    for i = 0 to n - 1 do
      let st = Core.stats cores.(i) in
      let m = measured.(i) in
      let e =
        if m > 0 && st.Core.committed > m then st.Core.active_cycles * st.Core.committed / m
        else st.Core.active_cycles
      in
      if e > !worst then worst := e
    done;
    !worst
  in
  let windows = ref [] in
  let detailed_cycles k ~measure =
    let before =
      if measure then Array.map (fun c -> (Core.stats c).Core.committed) cores
      else [||]
    in
    let start = !cycle in
    let w = ref 0 in
    while (not !finished) && !w < k do
      if traced then Obs.Trace.set_now obs !cycle;
      ignore (step_all cores ~cycle:!cycle);
      incr cycle;
      incr w;
      if all_drained () then finished := true
    done;
    if measure && !cycle > start then windows := (start, !cycle - 1) :: !windows;
    if measure then
      Array.iteri
        (fun i b ->
          measured.(i) <- measured.(i) + ((Core.stats cores.(i)).Core.committed - b))
        before
  in
  (* First window: the cold start is real execution, measure it
     without a warmup bracket. *)
  detailed_cycles s.Config.detailed ~measure:true;
  while not !finished do
    (* detailed -> functional: collapse to architectural state.  A CAS
       performs its read-modify-write at its completion point, before
       commit, so a core whose ROB holds a [Done] CAS must not flush:
       discarding the entry would let the functional leg apply the
       write a second time.  Settle instead — flush and park each core
       the moment it is [Core.flushable], and step the stragglers
       detailed until everyone has flushed.  A completed CAS is
       non-speculative (issue rules) and commits within bounded
       cycles, so this converges fast.  Settle commits are real
       forward progress (the exact counters keep them), but the
       micro-architectural accounting is erased like warmup: the
       measured windows already stand for this regime. *)
    sampled_any := true;
    let snaps = Array.map Core.counters_snapshot cores in
    let hsnap = hstats_snapshot () in
    let flushed = Array.make n false in
    let settle = ref 0 in
    let all_flushed = ref false in
    while not !all_flushed do
      all_flushed := true;
      for i = 0 to n - 1 do
        if not flushed.(i) then
          if Core.flushable cores.(i) then begin
            Core.flush_arch cores.(i);
            Core.park cores.(i);
            flushed.(i) <- true
          end
          else all_flushed := false
      done;
      if not !all_flushed then begin
        if traced then Obs.Trace.set_now obs !cycle;
        ignore (step_all cores ~cycle:!cycle);
        incr cycle;
        incr settle;
        if !settle > 1_000_000 then
          failwith "Sim_engine.run_sampled: flush settle did not converge"
      end
    done;
    Array.iteri (fun i c -> Core.counters_restore c snaps.(i)) cores;
    hstats_restore hsnap;
    Array.iter Core.unpark cores;
    let budget = Array.make n s.Config.ff_instrs in
    let live = ref true in
    while !live do
      live := false;
      for i = 0 to n - 1 do
        if budget.(i) > 0 then
          if Core.func_step cores.(i) then begin
            budget.(i) <- budget.(i) - 1;
            live := true
          end
          else budget.(i) <- 0
      done
    done;
    if Array.for_all Core.halted cores then finished := true
    else if estimate () >= max_cycles then
      (* stuck or runaway workload: the scaled estimate already blows
         the cycle budget, so stop — the run reports timed out, like
         the detailed engine at [max_cycles] *)
      finished := true
    else begin
      (* functional -> detailed: rebuild scope state, re-warm the
         pipeline with erased accounting, then measure *)
      Array.iter Core.reseed_scope cores;
      let snaps = Array.map Core.counters_snapshot cores in
      let hsnap = hstats_snapshot () in
      detailed_cycles s.Config.warmup ~measure:false;
      if not !finished then begin
        (* erase warmup accounting (unless the run ended inside the
           warmup — then those cycles are the true tail and stand) *)
        Array.iteri (fun i c -> Core.counters_restore c snaps.(i)) cores;
        hstats_restore hsnap;
        detailed_cycles s.Config.detailed ~measure:true
      end
    end
  done;
  (* Scale measured micro-architecture to the whole run. *)
  let total_all = ref 0 and measured_all = ref 0 in
  for i = 0 to n - 1 do
    let total = (Core.stats cores.(i)).Core.committed in
    total_all := !total_all + total;
    measured_all := !measured_all + measured.(i);
    Core.extrapolate cores.(i) ~total ~measured:measured.(i)
  done;
  if !measured_all > 0 && !total_all > !measured_all then begin
    let scale x = x * !total_all / !measured_all in
    hstats.Hierarchy.l1_hits <- scale hstats.Hierarchy.l1_hits;
    hstats.Hierarchy.l1_misses <- scale hstats.Hierarchy.l1_misses;
    hstats.Hierarchy.l2_hits <- scale hstats.Hierarchy.l2_hits;
    hstats.Hierarchy.l2_misses <- scale hstats.Hierarchy.l2_misses;
    hstats.Hierarchy.invalidations <- scale hstats.Hierarchy.invalidations;
    hstats.Hierarchy.c2c_transfers <- scale hstats.Hierarchy.c2c_transfers
  end;
  (* [Core.extrapolate] already scaled each core's active cycles to
     the whole run, so the machine estimate is now a plain max. *)
  let cycles =
    if !sampled_any then begin
      let worst = ref 0 in
      for i = 0 to n - 1 do
        let a = (Core.stats cores.(i)).Core.active_cycles in
        if a > !worst then worst := a
      done;
      min max_cycles (max !cycle !worst)
    end
    else !cycle
  in
  {
    cycles;
    timed_out = not (all_drained ());
    cores;
    mem;
    hierarchy;
    spin = fresh_spin_stats ();
    windows = List.rev !windows;
  }

(* Entry point: the sampled engine when the config asks for it,
   otherwise the sequential event-horizon loop. *)
let run ?(obs = Obs.Trace.null) ?checkpoint ?resume (config : Config.t) program =
  (match checkpoint with
  | Some (every, _) when every <= 0 ->
    invalid_arg "Sim_engine.run: checkpoint interval must be positive"
  | Some _ | None -> ());
  match config.Config.sampling with
  | Some s ->
    if Option.is_some checkpoint || Option.is_some resume then
      invalid_arg "Sim_engine.run: sampling and checkpointing are incompatible";
    run_sampled ~obs config program s
  | None -> run_sequential ~obs ?checkpoint ?resume config program

(* The retained naive loop: one cycle at a time, no fast-forward.  The
   differential suite holds [run] to bit-identical results against
   this, and the bench harness quotes the wall-clock win over it. *)
let run_naive ?(obs = Obs.Trace.null) (config : Config.t) program =
  let cores, mem, hierarchy, _on_store = build ~obs config program in
  let all_done () = Array.for_all Core.drained cores in
  let cycle = ref 0 in
  while (not (all_done ())) && !cycle < config.Config.max_cycles do
    let c = !cycle in
    Obs.Trace.set_now obs c;
    ignore (step_all cores ~cycle:c);
    incr cycle
  done;
  {
    cycles = !cycle;
    timed_out = not (all_done ());
    cores;
    mem;
    hierarchy;
    spin = fresh_spin_stats ();
    windows = [];
  }
