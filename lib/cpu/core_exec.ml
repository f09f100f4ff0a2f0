(* Completion phases and branch resolution.

   Every stage returns [true] iff it mutated pipeline state beyond the
   per-cycle stall accounting — the fast-forwarding engine freezes a
   core only when a whole cycle reports no progress, so any state
   change (a drained store, a completed load, a squash, even a
   computed address) must be reported. *)

module Instr = Fscope_isa.Instr
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* The completion phases and [finalize] skip their ROB walk while
   [cycle < Rob.due_lo]: no entry can be due before then (see the
   bound's contract in Rob). *)

let rec apply_drains t = function
  | [] -> ()
  | (en : Store_buffer.entry) :: rest ->
    Mem_port.store t.port ~addr:en.addr ~value:en.value;
    Scope_unit.on_bits_cleared t.scope en.mask;
    apply_drains t rest

let step_complete_writes t ~cycle =
  let drained = Store_buffer.take_completed t.sb ~cycle in
  apply_drains t drained;
  let progress = ref (match drained with [] -> false | _ :: _ -> true) in
  let rob = t.rob in
  if cycle >= Rob.due_lo rob then
    for s = Rob.head_seq rob to Rob.next_seq rob - 1 do
      let e = Rob.get rob s in
      match (e.instr, e.state) with
      | Instr.Cas _, Rob.Executing when e.done_at <= cycle ->
        (* The RMW performs atomically at its completion point. *)
        progress := true;
        let old = read_mem t e.addr in
        let success = old = e.data2 in
        if success && in_bounds t e.addr then
          Mem_port.store t.port ~addr:e.addr ~value:e.data;
        e.result <- (if success then 1 else 0);
        e.state <- Rob.Done;
        Scope_unit.on_bits_cleared t.scope e.scope_mask;
        (match t.obs with
        | Some o ->
          Fscope_obs.Trace.emit o.trace ~core:t.id
            (Fscope_obs.Event.Cas_result { addr = e.addr; success })
        | None -> ())
      | _, (Rob.Waiting | Rob.Executing | Rob.Done) -> ()
    done;
  !progress

let step_complete_reads t ~cycle =
  let progress = ref false in
  let rob = t.rob in
  if cycle >= Rob.due_lo rob then
    for s = Rob.head_seq rob to Rob.next_seq rob - 1 do
      let e = Rob.get rob s in
      match (e.instr, e.state) with
      | Instr.Load _, Rob.Executing when e.done_at <= cycle ->
        (* data2 = 1 marks a forwarded load whose value was captured at
           issue; otherwise the value is sampled from memory now, at
           the access's completion point. *)
        progress := true;
        if e.data2 = 0 then e.result <- read_mem t e.addr;
        e.state <- Rob.Done;
        Scope_unit.on_bits_cleared t.scope e.scope_mask
      | _, (Rob.Waiting | Rob.Executing | Rob.Done) -> ()
    done;
  !progress

(* ------------------------------------------------------------------ *)
(* Branch resolution and squash                                        *)
(* ------------------------------------------------------------------ *)

let release_squashed t (e : Rob.entry) =
  match e.instr with
  | Instr.Load _ | Instr.Cas _ ->
    if e.state <> Rob.Done then Scope_unit.on_bits_cleared t.scope e.scope_mask
  | Instr.Store _ -> Scope_unit.on_bits_cleared t.scope e.scope_mask
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _ | Instr.Jump _
  | Instr.Fence _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    ()

let squash t (e : Rob.entry) ~actual_target ~cycle =
  let removed = Rob.squash_after t.rob e.seq in
  List.iter (release_squashed t) removed;
  (match e.checkpoint with
  | Some cp -> Array.blit cp 0 t.rename 0 (Array.length cp)
  | None -> assert false);
  Scope_unit.on_branch_mispredict t.scope ~id:e.seq;
  t.fetch_pc <- actual_target;
  t.fetch_resume <- cycle + t.cfg.mispredict_penalty;
  t.fetch_stopped <- false;
  t.counts.mispredicts <- t.counts.mispredicts + 1

let resolve_branch t (e : Rob.entry) ~cycle =
  let taken = e.result <> 0 in
  let target =
    match e.instr with
    | Instr.Branch { target; _ } -> if taken then target else e.pc + 1
    | _ -> assert false
  in
  Branch_pred.update t.bpred ~pc:e.pc ~taken;
  if taken = e.predicted_taken then Scope_unit.on_branch_correct t.scope ~id:e.seq
  else squash t e ~actual_target:target ~cycle

(* Convert due executions to Done and resolve branches, oldest first
   (a misprediction squashes the younger ones before they resolve).
   The same walk recomputes [Rob.due_lo] exactly: the minimum
   [done_at] over the entries still executing afterwards, including
   the loads and CAS the completion phases own. *)
let finalize t ~cycle =
  let rob = t.rob in
  if cycle < Rob.due_lo rob then false
  else begin
    let progress = ref false in
    let lo = ref max_int in
    let s = ref (Rob.head_seq rob) in
    (* a squash shrinks the window under the walk, which then stops *)
    while Rob.contains rob !s do
      let e = Rob.get rob !s in
      incr s;
      match e.state with
      | Rob.Executing -> (
        let d = e.done_at in
        match e.instr with
        | Instr.Load _ | Instr.Cas _ -> if d < !lo then lo := d
        | _ when d > cycle -> if d < !lo then lo := d
        | Instr.Branch _ ->
          progress := true;
          e.state <- Rob.Done;
          resolve_branch t e ~cycle
        | _ ->
          progress := true;
          e.state <- Rob.Done)
      | Rob.Waiting | Rob.Done -> ()
    done;
    Rob.set_due_lo_after_scan rob !lo;
    !progress
  end
