(* In-order commit, plus the cycle-accounting that charges every
   active cycle to exactly one CPI-stack leaf.  The fast-forwarding
   engine replays the same classification in closed form over skipped
   spans (see [account_stall_span] at the bottom). *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Fsb = Fscope_core.Fsb
module Cpi = Fscope_obs.Cpi
open Core_state

let fence_commit_ok t (e : Rob.entry) =
  (* In-window speculation: the fence retires when the in-scope part of
     the store buffer has drained (older ROB entries are gone by
     definition at the commit head); flavours that do not order prior
     stores retire immediately. *)
  t.cfg.nop_fences
  ||
  let k = match e.instr with Instr.Fence k -> k | _ -> assert false in
  (not k.Fscope_isa.Fence_kind.wait_stores)
  ||
  match e.fence_wait with
  | None -> assert false
  | Some `Global -> Store_buffer.is_empty t.sb
  | Some (`Mask m) -> not (Store_buffer.mask_overlaps t.sb m)

(* Spin detection over the commit stream: a backward control transfer
   that repeats at the same PC with no store, CAS or fence committed in
   between is a read-only wait loop — the ROADMAP's spin-candidate.
   Commit streams are identical between the two engine loops, so this
   is deterministic and engine-independent. *)
let spin_backward_edge t pc =
  let spinning = t.spin_last_pc = pc && not t.spin_dirty in
  t.spin_mode <- spinning;
  (* a committed spinning backward edge ends a loop iteration — mark
     the cycle as a boundary for the fast-forward stability probe *)
  if spinning then Core_spin.note_boundary t;
  (match t.obs with
  | Some o when spinning ->
    let m = Fscope_obs.Trace.metrics o.trace in
    Fscope_obs.Metrics.incr
      (Fscope_obs.Metrics.counter m (Printf.sprintf "core%d/spin/pc%d" t.id pc))
  | Some _ | None -> ());
  t.spin_last_pc <- pc;
  t.spin_dirty <- false

let spin_note t (e : Rob.entry) =
  match e.instr with
  | Instr.Store _ | Instr.Cas _ | Instr.Fence _ ->
    t.spin_dirty <- true;
    t.spin_mode <- false;
    Core_spin.note_dirty t
  | Instr.Jump target ->
    if target <= e.pc then spin_backward_edge t e.pc else t.spin_mode <- false
  | Instr.Branch { target; _ } ->
    if e.result <> 0 then
      if target <= e.pc then spin_backward_edge t e.pc else t.spin_mode <- false
  | _ -> ()

let commit_effects t (e : Rob.entry) =
  (match Instr.writes_reg e.instr with
  | Some r -> t.arf.(Reg.index r) <- e.result
  | None -> ());
  t.counts.committed <- t.counts.committed + 1;
  spin_note t e;
  match e.instr with
  | Instr.Load _ ->
    t.counts.loads <- t.counts.loads + 1;
    t.counts.committed_mem <- t.counts.committed_mem + 1
  | Instr.Store _ ->
    t.counts.stores <- t.counts.stores + 1;
    t.counts.committed_mem <- t.counts.committed_mem + 1
  | Instr.Cas _ ->
    t.counts.cas_ops <- t.counts.cas_ops + 1;
    t.counts.committed_mem <- t.counts.committed_mem + 1
  | Instr.Fence _ -> t.counts.committed_fences <- t.counts.committed_fences + 1
  | Instr.Fs_start cid -> t.arch_nest <- cid :: t.arch_nest
  | Instr.Fs_end _ -> (
    match t.arch_nest with
    | _ :: rest -> t.arch_nest <- rest
    | [] -> () (* unmatched fs_end: legal program, nothing to pop *))
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _ | Instr.Jump _
  | Instr.Halt ->
    ()

(* Does an older entry in seqs [s, stop), inside the fence's scope
   ([global], or scope bits meeting [mask]), still hold the fence: an
   incomplete load/CAS ([load]) or a store not yet in the store
   buffer? *)
let rec older_covered rob ~global ~mask ~load s stop =
  s < stop
  && (let o = Rob.get rob s in
      ((global || not (Fsb.is_empty (Fsb.inter o.Rob.scope_mask mask)))
      &&
      match o.instr with
      | Instr.Load _ | Instr.Cas _ -> load && o.state <> Rob.Done
      | Instr.Store _ -> not load
      | _ -> false)
      || older_covered rob ~global ~mask ~load (s + 1) stop)

(* Why is the head fence stalled?  Charged once per stalled cycle to
   the first matching cause (ROB loads, then ROB stores, then SB
   drain), split by whether the fence waits on an S-Fence scope mask
   or globally.  [times] lets the engine charge a whole frozen span at
   once — the classification only reads state that cannot change while
   the core makes no progress, so every cycle of the span lands in the
   same leaf. *)
let charge_fence_stall t (e : Rob.entry) ~times =
  let mask =
    match e.fence_wait with Some (`Mask m) -> m | Some `Global | None -> Fsb.empty
  in
  let global =
    match e.fence_wait with Some (`Mask _) -> false | Some `Global | None -> true
  in
  let head = Rob.head_seq t.rob in
  let cause =
    if older_covered t.rob ~global ~mask ~load:true head e.seq then Cpi.Rob_load
    else if older_covered t.rob ~global ~mask ~load:false head e.seq then Cpi.Rob_store
    else Cpi.Sb_drain
  in
  let scope = if global then Cpi.Unscoped else Cpi.Scoped in
  Cpi.charge_n t.cpi (Cpi.Fence_wait (cause, scope)) ~times

(* Per-static-fence-site and per-scope attribution, on traced runs
   only: a commit counter per (core, fence PC), a scoped-commit
   counter, and a stall-episode histogram, plus the same keyed by the
   fence's class id.  Registered lazily by name — static sites are
   enumerated by the profiler from the program image, so sites that
   never commit still appear (with zeros) in its tables. *)
let note_fence_commit t (e : Rob.entry) ~stalled =
  match t.obs with
  | None -> ()
  | Some o ->
    let m = Fscope_obs.Trace.metrics o.trace in
    let c name = Fscope_obs.Metrics.counter m name in
    let h name = Fscope_obs.Metrics.histogram m name in
    let site suffix = Printf.sprintf "core%d/fence_pc%d/%s" t.id e.pc suffix in
    Fscope_obs.Metrics.incr (c (site "commits"));
    (match e.fence_wait with
    | Some (`Mask _) -> Fscope_obs.Metrics.incr (c (site "scoped_commits"))
    | Some `Global | None -> ());
    (match stalled with
    | Some cycles -> Fscope_obs.Metrics.observe (h (site "stall_cycles")) cycles
    | None -> ());
    if e.fence_cid >= 0 then begin
      Fscope_obs.Metrics.incr (c (Printf.sprintf "cid%d/commits" e.fence_cid));
      match stalled with
      | Some cycles ->
        Fscope_obs.Metrics.observe
          (h (Printf.sprintf "cid%d/stall_cycles" e.fence_cid))
          cycles
      | None -> ()
    end

let commit t ~cycle =
  let progress = ref false in
  let budget = ref t.cfg.commit_width in
  let blocked = ref false in
  while (not !blocked) && !budget > 0 && not t.halted do
    if Rob.is_empty t.rob then blocked := true
    else begin
      let e = Rob.get t.rob (Rob.head_seq t.rob) in
      match e.instr with
      | Instr.Halt ->
        ignore (Rob.pop_head t.rob);
        commit_effects t e;
        t.halted <- true;
        progress := true
      | Instr.Store _ ->
        if e.state <> Rob.Done then blocked := true
        else if Store_buffer.is_full t.sb then begin
          Cpi.charge t.cpi Cpi.Sb_full;
          t.cycle_charged <- true;
          blocked := true
        end
        else begin
          if not (in_bounds t e.addr) then
            invalid_arg
              (Printf.sprintf "core %d: store to out-of-bounds address %d (pc %d)" t.id
                 e.addr e.pc);
          let completes =
            Mem_port.issue t.port ~core:t.id Mem_port.Write ~addr:e.addr ~now:cycle
          in
          (* Same-address stores must become visible in program order
             (per-location coherence), so a later store may not
             overtake an in-flight one to the same address. *)
          let floor = Store_buffer.last_done_at t.sb ~addr:e.addr in
          Store_buffer.push t.sb
            {
              Store_buffer.addr = e.addr;
              value = e.data;
              mask = e.scope_mask;
              done_at = Int.max completes (floor + 1);
            };
          ignore (Rob.pop_head t.rob);
          commit_effects t e;
          progress := true;
          decr budget
        end
      | Instr.Fence _ ->
        let ok =
          if t.cfg.in_window_speculation then fence_commit_ok t e
          else e.fence_issued
        in
        if ok then begin
          let stalled = ref None in
          (match t.obs with
          | Some o when o.stall_begin >= 0 ->
            let cycles = cycle - o.stall_begin in
            stalled := Some cycles;
            Fscope_obs.Trace.emit o.trace ~core:t.id
              (Fscope_obs.Event.Fence_stall_end { pc = e.pc; cycles });
            Fscope_obs.Metrics.observe o.stall_hist cycles;
            o.stall_begin <- -1
          | Some _ | None -> ());
          note_fence_commit t e ~stalled:!stalled;
          ignore (Rob.pop_head t.rob);
          commit_effects t e;
          progress := true;
          decr budget
        end
        else begin
          charge_fence_stall t e ~times:1;
          t.cycle_charged <- true;
          (match t.obs with
          | Some o when o.stall_begin < 0 ->
            o.stall_begin <- cycle;
            Fscope_obs.Trace.emit o.trace ~core:t.id
              (Fscope_obs.Event.Fence_stall_begin
                 {
                   pc = e.pc;
                   global =
                     (match e.fence_wait with
                     | Some (`Mask _) -> false
                     | Some `Global | None -> true);
                 })
          | Some _ | None -> ());
          blocked := true
        end
      | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Load _ | Instr.Cas _
      | Instr.Branch _ | Instr.Jump _ | Instr.Fs_start _ | Instr.Fs_end _ ->
        if e.state = Rob.Done then begin
          ignore (Rob.pop_head t.rob);
          commit_effects t e;
          progress := true;
          decr budget
        end
        else blocked := true
    end
  done;
  !progress

(* The leaf for a cycle on which nothing committed and commit charged
   nothing (so the head is not a blocked fence or a store facing a
   full store buffer — those were charged in the commit loop).  A head
   load/CAS in flight is charged to the memory level serving it;
   everything else waiting at the head (operand dependences,
   unresolved branches, forwarded loads completing next cycle) is an
   execution dependence. *)
let classify_waiting_head (e : Rob.entry) =
  match e.instr with
  | (Instr.Load _ | Instr.Cas _) when e.state <> Rob.Done -> (
    match e.mem_level with
    | Some Fscope_obs.Event.L1_hit -> Cpi.Mem_l1
    | Some Fscope_obs.Event.L2_hit -> Cpi.Mem_l2
    | Some Fscope_obs.Event.L2_miss -> Cpi.Mem_main
    | None -> Cpi.Exec_dep)
  | _ -> Cpi.Exec_dep

let classify_blocked t ~cycle =
  if Rob.is_empty t.rob then
    (* An empty ROB while the front end waits out a mispredict penalty
       is the flush shadow; empty with nothing pending is a starved
       front end (e.g. the tail of the program). *)
    if (not t.fetch_stopped) && t.fetch_resume > cycle then Cpi.Branch_flush
    else Cpi.Frontend_empty
  else classify_waiting_head (Rob.get t.rob (Rob.head_seq t.rob))

(* Replay the per-cycle accounting of the [n] pure-stall cycles
   following [cycle] in O(1).

   Preconditions (established by the engine): the core reported no
   progress at [cycle], so until its next wake-up every cycle is
   identical — the pipeline steps would only (a) bump the activity
   counters, (b) re-observe the unchanged occupancy gauges, and
   (c) charge the same CPI leaf.  Exactly that, [n] times, is what
   this function applies.  The one cycle-dependent classification —
   an empty ROB flips from [Branch_flush] to [Frontend_empty] once
   [fetch_resume] passes — is replayed in closed form. *)
let account_stall_span t ~cycle ~cycles:n =
  if n > 0 && not t.halted then begin
    t.counts.active_cycles <- t.counts.active_cycles + n;
    t.counts.rob_occupancy_sum <- t.counts.rob_occupancy_sum + (n * Rob.count t.rob);
    (match t.obs with
    | Some o ->
      Fscope_obs.Metrics.gauge_observe_n o.rob_gauge (Rob.count t.rob) ~times:n;
      Fscope_obs.Metrics.gauge_observe_n o.sb_gauge (Store_buffer.count t.sb) ~times:n
    | None -> ());
    match Rob.head t.rob with
    | Some e -> (
      match e.instr with
      | Instr.Store _ when e.state = Rob.Done && Store_buffer.is_full t.sb ->
        Cpi.charge_n t.cpi Cpi.Sb_full ~times:n
      | Instr.Fence _
        when not
               (if t.cfg.in_window_speculation then fence_commit_ok t e
                else e.fence_issued) ->
        charge_fence_stall t e ~times:n
      | _ -> Cpi.charge_n t.cpi (classify_waiting_head e) ~times:n)
    | None ->
      (* Cycles [cycle+1 .. cycle+n]: Branch_flush while the cycle is
         still below [fetch_resume], Frontend_empty after. *)
      let flush =
        if t.fetch_stopped then 0 else max 0 (min n (t.fetch_resume - (cycle + 1)))
      in
      Cpi.charge_n t.cpi Cpi.Branch_flush ~times:flush;
      Cpi.charge_n t.cpi Cpi.Frontend_empty ~times:(n - flush)
  end
