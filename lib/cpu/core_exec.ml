(* Completion phases and branch resolution.

   Every stage returns [true] iff it mutated pipeline state beyond the
   per-cycle stall accounting — the fast-forwarding engine freezes a
   core only when a whole cycle reports no progress, so any state
   change (a drained store, a completed load, a squash, even a
   computed address) must be reported. *)

module Instr = Fscope_isa.Instr
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* The completion phases and [finalize] walk only the ROB's executing
   entries, oldest first (see Rob's slot index). *)

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
  let tail = Rob.next_seq rob in
  let s = ref (Rob.next_executing rob (Rob.head_seq rob)) in
  while !s < tail do
    let e = Rob.get rob !s in
    (match e.instr with
    | Instr.Cas _ when e.done_at <= cycle ->
      (* The RMW performs atomically at its completion point. *)
      progress := true;
      let old = read_mem t e.addr in
      let success = old = e.data2 in
      if success && in_bounds t e.addr then Mem_port.store t.port ~addr:e.addr ~value:e.data;
      e.result <- (if success then 1 else 0);
      Rob.set_done rob e;
      Scope_unit.on_bits_cleared t.scope e.scope_mask;
      (match t.obs with
      | Some o ->
        Fscope_obs.Trace.emit o.trace ~core:t.id
          (Fscope_obs.Event.Cas_result { addr = e.addr; success })
      | None -> ())
    | _ -> ());
    s := Rob.next_executing rob (!s + 1)
  done;
  !progress

let step_complete_reads t ~cycle =
  let progress = ref false in
  let rob = t.rob in
  let tail = Rob.next_seq rob in
  let s = ref (Rob.next_executing rob (Rob.head_seq rob)) in
  while !s < tail do
    let e = Rob.get rob !s in
    (match e.instr with
    | Instr.Load _ when e.done_at <= cycle ->
      (* data2 = 1 marks a forwarded load whose value was captured at
         issue; otherwise the value is sampled from memory now, at
         the access's completion point. *)
      progress := true;
      if e.data2 = 0 then e.result <- read_mem t e.addr;
      Rob.set_done rob e;
      Scope_unit.on_bits_cleared t.scope e.scope_mask
    | _ -> ());
    s := Rob.next_executing rob (!s + 1)
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

(* The squashed entries are released in place, in their slots, before
   the ROB drops them. *)
let squash t (e : Rob.entry) ~actual_target ~cycle =
  let rob = t.rob in
  for s = e.seq + 1 to Rob.next_seq rob - 1 do
    release_squashed t (Rob.get rob s)
  done;
  Rob.squash_after rob e.seq;
  assert e.checkpointed;
  Array.blit e.checkpoint 0 t.rename 0 (Array.length t.rename);
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
   (a misprediction squashes the younger ones before they resolve, and
   the walk then stops at the new tail).  Loads and CAS are left to the
   completion phases. *)
let finalize t ~cycle =
  let rob = t.rob in
  let progress = ref false in
  let s = ref (Rob.next_executing rob (Rob.head_seq rob)) in
  while !s < Rob.next_seq rob do
    let e = Rob.get rob !s in
    (match e.instr with
    | Instr.Load _ | Instr.Cas _ -> ()
    | _ when e.done_at > cycle -> ()
    | Instr.Branch _ ->
      progress := true;
      Rob.set_done rob e;
      resolve_branch t e ~cycle
    | _ ->
      progress := true;
      Rob.set_done rob e);
    s := Rob.next_executing rob (!s + 1)
  done;
  !progress
