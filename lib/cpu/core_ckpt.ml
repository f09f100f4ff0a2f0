(* Whole-core checkpointing, and the architectural flush / reseed
   protocol the sampled engine uses at detailed<->functional
   transitions.

   Unlike the spin probe's snapshot (Core_spin.build_snapshot), which
   relativizes every cycle- and seq-valued field so two loop boundaries
   compare equal, a checkpoint keeps everything ABSOLUTE: it is taken
   at the top of the engine's cycle loop and restored into a machine
   rebuilt at the same cycle, so completion deadlines, fetch-resume
   points and ROB seqs are valid verbatim.  Instructions are never
   serialized — an entry stores its pc and the restore re-reads
   [code.(pc)]; the machine-level digest check guarantees the program
   is the same one.

   Checkpointing is restricted to untraced runs (no [obs] state) with
   no armed spin certificate at the capture point (the engine force-
   wakes sleepers first), so neither is serialized. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
module Cpi = Fscope_obs.Cpi
module Json = Fscope_util.Json
open Core_state

(* ------------------------------------------------------------------ *)
(* Field codecs                                                        *)

(* [done_at] travels with [Executing] only, as [1, done_at]. *)
let state_to_json (e : Rob.entry) =
  match e.state with
  | Rob.Waiting -> Json.Arr [ Json.Int 0 ]
  | Rob.Executing -> Json.Arr [ Json.Int 1; Json.Int e.done_at ]
  | Rob.Done -> Json.Arr [ Json.Int 2 ]

(* The entry was just dispatched, so it is [Waiting]; a later state
   goes through the ROB's index updates. *)
let state_of_json rob (e : Rob.entry) j =
  match Json.list_exn j with
  | [ Json.Int 0 ] -> ()
  | [ Json.Int 1; d ] -> Rob.set_exec rob e ~done_at:(Json.int_exn d)
  | [ Json.Int 2 ] -> Rob.set_done rob e
  | _ -> failwith "checkpoint: malformed exec state"

let fence_wait_to_json = function
  | None -> Json.Null
  | Some `Global -> Json.Str "g"
  | Some (`Mask m) -> Json.Int m

let fence_wait_of_json = function
  | Json.Null -> None
  | Json.Str "g" -> Some `Global
  | Json.Int m -> Some (`Mask m)
  | _ -> failwith "checkpoint: malformed fence wait"

let mem_level_to_int = function
  | None -> -1
  | Some Fscope_obs.Event.L1_hit -> 0
  | Some Fscope_obs.Event.L2_hit -> 1
  | Some Fscope_obs.Event.L2_miss -> 2

let mem_level_of_int = function
  | -1 -> None
  | 0 -> Some Fscope_obs.Event.L1_hit
  | 1 -> Some Fscope_obs.Event.L2_hit
  | 2 -> Some Fscope_obs.Event.L2_miss
  | _ -> failwith "checkpoint: malformed mem level"

let entry_to_json (e : Rob.entry) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("pc", Json.Int e.pc);
      ("srcs", Json.of_int_array (Array.sub e.src_producer 0 e.src_count));
      ("state", state_to_json e);
      ("result", Json.Int e.result);
      ("addr", Json.Int e.addr);
      ("data", Json.Int e.data);
      ("data2", Json.Int e.data2);
      ("mask", Json.Int e.scope_mask);
      ("fw", fence_wait_to_json e.fence_wait);
      ("fi", Json.Bool e.fence_issued);
      ("fcid", Json.Int e.fence_cid);
      ("ml", Json.Int (mem_level_to_int e.mem_level));
      ("pt", Json.Bool e.predicted_taken);
      ("cp", if e.checkpointed then Json.of_int_array e.checkpoint else Json.Null);
    ]

(* Rebuild an entry through the pipeline's own dispatch path, in the
   next tail slot: the instruction is re-read from the code image and
   the operand store filled by [Core_frontend.set_sources] — duplicates
   and order preserved — with the serialized producers put back in. *)
let entry_of_json (t : t) j =
  let rob = t.rob in
  if Json.int_exn (Json.get "seq" j) <> Rob.next_seq rob then
    failwith "checkpoint: non-consecutive ROB seq";
  if Rob.is_full rob then failwith "checkpoint: more ROB entries than slots";
  let pc = Json.int_exn (Json.get "pc" j) in
  if pc < 0 || pc >= Array.length t.code then failwith "checkpoint: entry pc out of range";
  let instr = t.code.(pc) in
  let producers = Json.int_list_exn (Json.get "srcs" j) in
  let e = Rob.dispatch rob ~pc ~instr in
  Core_frontend.set_sources e t.rename instr;
  if List.length producers <> e.src_count then
    failwith "checkpoint: source arity mismatch (program changed?)";
  List.iteri (fun i p -> e.src_producer.(i) <- p) producers;
  state_of_json rob e (Json.get "state" j);
  e.result <- Json.int_exn (Json.get "result" j);
  Rob.set_addr rob e (Json.int_exn (Json.get "addr" j));
  e.data <- Json.int_exn (Json.get "data" j);
  e.data2 <- Json.int_exn (Json.get "data2" j);
  e.scope_mask <- Json.int_exn (Json.get "mask" j);
  e.fence_wait <- fence_wait_of_json (Json.get "fw" j);
  e.fence_issued <- Json.bool_exn (Json.get "fi" j);
  e.fence_cid <- Json.int_exn (Json.get "fcid" j);
  e.mem_level <- mem_level_of_int (Json.int_exn (Json.get "ml" j));
  e.predicted_taken <- Json.bool_exn (Json.get "pt" j);
  match Json.get "cp" j with
  | Json.Null -> ()
  | cp ->
    let cp = Json.int_list_exn cp in
    if List.length cp <> Array.length e.checkpoint then
      failwith "checkpoint: rename checkpoint size mismatch";
    List.iteri (fun i p -> e.checkpoint.(i) <- p) cp;
    e.checkpointed <- true

let counts_to_json (c : counts) =
  Json.of_int_list
    [
      c.committed;
      c.committed_mem;
      c.committed_fences;
      c.branches;
      c.mispredicts;
      c.loads;
      c.stores;
      c.cas_ops;
      c.rob_occupancy_sum;
      c.active_cycles;
    ]

let counts_restore_list (c : counts) = function
  | [ a0; a1; a2; a3; a4; a5; a6; a7; a8; a9 ] ->
    c.committed <- a0;
    c.committed_mem <- a1;
    c.committed_fences <- a2;
    c.branches <- a3;
    c.mispredicts <- a4;
    c.loads <- a5;
    c.stores <- a6;
    c.cas_ops <- a7;
    c.rob_occupancy_sum <- a8;
    c.active_cycles <- a9
  | _ -> failwith "checkpoint: malformed counts"

(* ------------------------------------------------------------------ *)
(* Whole-core snapshot / restore                                       *)

let snapshot (t : t) =
  let rob_entries = ref [] in
  Rob.iter t.rob (fun e -> rob_entries := entry_to_json e :: !rob_entries);
  let sb_entries = ref [] in
  Store_buffer.iter t.sb (fun (en : Store_buffer.entry) ->
      sb_entries :=
        Json.of_int_list [ en.addr; en.value; en.mask; en.done_at ] :: !sb_entries);
  Json.Obj
    [
      ("fetch_pc", Json.Int t.fetch_pc);
      ("fetch_resume", Json.Int t.fetch_resume);
      ("fetch_stopped", Json.Bool t.fetch_stopped);
      ("halted", Json.Bool t.halted);
      ("arch_nest", Json.of_int_list t.arch_nest);
      ("arf", Json.of_int_array t.arf);
      ("rename", Json.of_int_array t.rename);
      ("rob_head", Json.Int (Rob.head_seq t.rob));
      ("rob", Json.Arr (List.rev !rob_entries));
      ("sb", Json.Arr (List.rev !sb_entries));
      ("bpred", Json.of_int_array (Branch_pred.snapshot t.bpred));
      ("counts", counts_to_json t.counts);
      ("cpi", Json.of_int_array (Cpi.to_array t.cpi));
      ("spin_last_pc", Json.Int t.spin_last_pc);
      ("spin_dirty", Json.Bool t.spin_dirty);
      ("spin_mode", Json.Bool t.spin_mode);
      ("scope", Scope_unit.to_json t.scope);
    ]

let restore (t : t) j =
  t.fetch_pc <- Json.int_exn (Json.get "fetch_pc" j);
  t.fetch_resume <- Json.int_exn (Json.get "fetch_resume" j);
  t.fetch_stopped <- Json.bool_exn (Json.get "fetch_stopped" j);
  t.halted <- Json.bool_exn (Json.get "halted" j);
  t.arch_nest <- Json.int_list_exn (Json.get "arch_nest" j);
  let arf = Json.int_array_exn (Json.get "arf" j) in
  if Array.length arf <> Array.length t.arf then failwith "checkpoint: ARF size mismatch";
  Array.blit arf 0 t.arf 0 (Array.length arf);
  let rename = Json.int_array_exn (Json.get "rename" j) in
  if Array.length rename <> Array.length t.rename then
    failwith "checkpoint: rename size mismatch";
  Array.blit rename 0 t.rename 0 (Array.length rename);
  Rob.reset_window t.rob ~head_seq:(Json.int_exn (Json.get "rob_head" j));
  List.iter (entry_of_json t) (Json.list_exn (Json.get "rob" j));
  Store_buffer.restore t.sb
    (List.map
       (fun en ->
         match Json.int_list_exn en with
         | [ addr; value; mask; done_at ] -> { Store_buffer.addr; value; mask; done_at }
         | _ -> failwith "checkpoint: malformed store-buffer entry")
       (Json.list_exn (Json.get "sb" j)));
  Branch_pred.restore t.bpred (Json.int_array_exn (Json.get "bpred" j));
  counts_restore_list t.counts (Json.int_list_exn (Json.get "counts" j));
  Cpi.restore t.cpi (Json.int_array_exn (Json.get "cpi" j));
  t.spin_last_pc <- Json.int_exn (Json.get "spin_last_pc" j);
  t.spin_dirty <- Json.bool_exn (Json.get "spin_dirty" j);
  t.spin_mode <- Json.bool_exn (Json.get "spin_mode" j);
  Scope_unit.restore t.scope (Json.get "scope" j);
  (* a restored core starts with a clean probe — re-arming needs fresh
     boundaries, which costs nothing and keeps probe state out of the
     format *)
  t.cycle_charged <- false;
  Core_spin.cancel t

(* ------------------------------------------------------------------ *)
(* Sampled-mode transitions                                            *)

(* Detailed -> functional: collapse the core to architectural state.
   The oldest un-committed instruction (ROB head) defines the
   architectural pc; committed stores sitting in the store buffer are
   already globally ordered, so they drain to memory in FIFO order;
   all speculative work is discarded (the functional executor simply
   re-executes it).  Timing state — caches, predictor — is left warm
   on purpose: that is what the post-fast-forward warmup refines. *)
(* A CAS performs its RMW at its completion point, BEFORE commit
   (Core_exec.step_complete_writes): a [Done] CAS in the ROB has
   already written memory, so discarding it in [flush_arch] would let
   the functional executor apply the RMW a second time.  An
   [Executing] CAS has not written yet — the write only fires for an
   entry still in the ROB at its deadline — and [cas_issue_ok]
   guarantees it is non-speculative, so discarding and re-executing it
   functionally is a valid (merely different) execution.  The sampled
   engine flushes a core only when this predicate holds, stepping it
   detailed until the completed CAS commits. *)
let flushable (t : t) =
  let ok = ref true in
  Rob.iter t.rob (fun e ->
      match (e.Rob.instr, e.Rob.state) with
      | Instr.Cas _, Rob.Done -> ok := false
      | _, (Rob.Waiting | Rob.Executing | Rob.Done) -> ());
  !ok

(* Fetch suppression for a flushed core while the other cores settle
   to their own flush points: with an empty ROB, a drained store
   buffer and fetch parked, stepping the core is a no-op, so its
   architectural state stays exactly where [flush_arch] put it. *)
let park (t : t) = t.fetch_resume <- max_int
let unpark (t : t) = if t.fetch_resume = max_int then t.fetch_resume <- 0

let flush_arch (t : t) =
  let pc = match Rob.head t.rob with Some e -> e.Rob.pc | None -> t.fetch_pc in
  Store_buffer.iter t.sb (fun (en : Store_buffer.entry) ->
      Mem_port.store t.port ~addr:en.addr ~value:en.value);
  Store_buffer.restore t.sb [];
  Rob.reset_window t.rob ~head_seq:(Rob.next_seq t.rob);
  Array.fill t.rename 0 (Array.length t.rename) Rob.arch;
  t.fetch_pc <- pc;
  t.fetch_resume <- 0;
  t.fetch_stopped <- t.halted;
  t.cycle_charged <- false;
  t.spin_last_pc <- -1;
  t.spin_dirty <- true;
  t.spin_mode <- false;
  Core_spin.cancel t

(* Functional -> detailed: the scope unit's speculative machinery was
   left behind at the flush, so rebuild it from the committed nesting
   the executor maintained. *)
let reseed_scope (t : t) =
  Scope_unit.reset t.scope;
  List.iter (fun cid -> Scope_unit.on_fs_start t.scope ~cid) (List.rev t.arch_nest)

(* Warmup erasure: the sampled engine runs [warmup] detailed cycles to
   re-warm pipeline state, then discards their MICRO-ARCHITECTURAL
   accounting (mispredicts, occupancy, active cycles, CPI leaves) so
   only the measured window contributes to the extrapolated metrics.
   The exact event counters (commits, memory ops, fences, ...) are
   real forward progress — warmup instructions execute once, not
   again — and are never erased. *)
let counters_snapshot (t : t) =
  ( [| t.counts.mispredicts; t.counts.rob_occupancy_sum; t.counts.active_cycles |],
    Cpi.to_array t.cpi )

let counters_restore (t : t) (a, cpi) =
  (match a with
  | [| m; r; ac |] ->
    t.counts.mispredicts <- m;
    t.counts.rob_occupancy_sum <- r;
    t.counts.active_cycles <- ac
  | _ -> invalid_arg "Core.counters_restore: malformed snapshot");
  Cpi.restore t.cpi cpi

(* Scale the measured micro-architectural metrics to the whole run:
   [total] committed instructions were executed, [measured] of them
   inside measured detailed windows, so each cycle-valued metric grows
   by [total/measured] (integer arithmetic; [active_cycles] is re-set
   to the sum of the scaled leaves so the leaves-sum-to-active
   invariant survives scaling). *)
let extrapolate (t : t) ~total ~measured =
  if measured > 0 && total > measured then begin
    let scale x = x * total / measured in
    let scaled = Array.map scale (Cpi.to_array t.cpi) in
    Cpi.restore t.cpi scaled;
    t.counts.mispredicts <- scale t.counts.mispredicts;
    t.counts.rob_occupancy_sum <- scale t.counts.rob_occupancy_sum;
    t.counts.active_cycles <- Array.fold_left ( + ) 0 scaled
  end
