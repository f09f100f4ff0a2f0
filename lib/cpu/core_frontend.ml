(* Fetch along the predicted path and dispatch into the ROB. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* Fill a freshly dispatched entry's operand store with the positional
   source operands, matching how execution consumes them, each bound to
   its producer in [rename]. *)
let add_src (e : Rob.entry) rename r =
  let k = e.src_count in
  e.src_producer.(k) <- rename.(Reg.index r);
  e.src_reg.(k) <- r;
  e.src_count <- k + 1

let set_sources e rename = function
  | Instr.Nop | Instr.Li _ | Instr.Tid _ | Instr.Jump _ | Instr.Fence _
  | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    ()
  | Instr.Alu (_, _, a, Instr.Reg b) ->
    add_src e rename a;
    add_src e rename b
  | Instr.Alu (_, _, a, Instr.Imm _) -> add_src e rename a
  | Instr.Load { base; _ } -> add_src e rename base
  | Instr.Store { src = d; base; _ } ->
    add_src e rename d;
    add_src e rename base
  | Instr.Cas { base; expected; desired; _ } ->
    add_src e rename base;
    add_src e rename expected;
    add_src e rename desired
  | Instr.Branch { src = c; _ } -> add_src e rename c

let dispatch t ~cycle =
  let progress = ref false in
  if cycle >= t.fetch_resume && not t.fetch_stopped then begin
    let budget = ref t.cfg.fetch_width in
    let halt_fetch = ref false in
    while
      (not !halt_fetch)
      && !budget > 0
      && (not (Rob.is_full t.rob))
      && t.fetch_pc >= 0
      && t.fetch_pc < Array.length t.code
    do
      progress := true;
      let pc = t.fetch_pc in
      let instr = t.code.(pc) in
      (* A scope micro-op reaches the scope unit before its entry enters
         the ROB, so a trace shows the scope event ahead of the
         dispatch. *)
      (match instr with
      | Instr.Fs_start cid -> Scope_unit.on_fs_start t.scope ~cid
      | Instr.Fs_end cid -> Scope_unit.on_fs_end t.scope ~cid
      | _ -> ());
      let e = Rob.dispatch t.rob ~pc ~instr in
      set_sources e t.rename instr;
      (match instr with
      | Instr.Nop -> Rob.set_done t.rob e
      | Instr.Fs_start _ | Instr.Fs_end _ ->
        (* scope micro-ops mutate the scope unit at dispatch — the
           closed-form spin replay cannot reproduce that *)
        Core_spin.note_dirty t;
        Rob.set_done t.rob e
      | Instr.Jump target ->
        Rob.set_done t.rob e;
        t.fetch_pc <- target
      | Instr.Halt ->
        Rob.set_done t.rob e;
        t.fetch_stopped <- true;
        halt_fetch := true
      | Instr.Fence kind ->
        e.fence_wait <- Some (Scope_unit.fence_scope t.scope kind);
        (match Scope_unit.current_cid t.scope with
        | Some cid -> e.fence_cid <- cid
        | None -> ());
        if t.cfg.in_window_speculation || t.cfg.nop_fences then begin
          e.fence_issued <- true;
          Rob.set_done t.rob e
        end
      | Instr.Load { flagged; _ } | Instr.Store { flagged; _ } | Instr.Cas { flagged; _ }
        ->
        let mask = Scope_unit.decode_mask t.scope ~flagged in
        e.scope_mask <- mask;
        Scope_unit.on_bits_set t.scope mask
      | Instr.Branch { target; _ } ->
        let predicted = Branch_pred.predict t.bpred ~pc in
        e.predicted_taken <- predicted;
        Array.blit t.rename 0 e.checkpoint 0 (Array.length t.rename);
        e.checkpointed <- true;
        Scope_unit.on_branch t.scope ~id:e.seq;
        t.counts.branches <- t.counts.branches + 1;
        t.fetch_pc <- (if predicted then target else pc + 1)
      | Instr.Li _ | Instr.Alu _ | Instr.Tid _ -> ());
      (match instr with
      | Instr.Jump _ | Instr.Branch _ | Instr.Halt -> ()
      | _ -> t.fetch_pc <- pc + 1);
      let dst = Instr.dst_reg instr in
      if not (Reg.equal dst Reg.zero) then t.rename.(Reg.index dst) <- e.seq;
      decr budget
    done
  end;
  !progress
