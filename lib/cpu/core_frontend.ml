(* Fetch along the predicted path and dispatch into the ROB. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* The positional source operands, matching how execution consumes
   them, each bound to its producer in [rename].  Built directly:
   dispatch runs this for every instruction. *)
let src rename r = { Rob.producer = rename.(Reg.index r); reg = r }

let sources rename = function
  | Instr.Nop | Instr.Li _ | Instr.Tid _ | Instr.Jump _ | Instr.Fence _
  | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    [||]
  | Instr.Alu (_, _, a, Instr.Reg b) -> [| src rename a; src rename b |]
  | Instr.Alu (_, _, a, Instr.Imm _) -> [| src rename a |]
  | Instr.Load { base; _ } -> [| src rename base |]
  | Instr.Store { src = d; base; _ } -> [| src rename d; src rename base |]
  | Instr.Cas { base; expected; desired; _ } ->
    [| src rename base; src rename expected; src rename desired |]
  | Instr.Branch { src = c; _ } -> [| src rename c |]

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
      let seq = Rob.next_seq t.rob in
      let e = Rob.make_entry ~seq ~pc ~instr ~srcs:(sources t.rename instr) in
      (match instr with
      | Instr.Nop -> e.state <- Rob.Done
      | Instr.Fs_start cid ->
        Scope_unit.on_fs_start t.scope ~cid;
        (* scope micro-ops mutate the scope unit at dispatch — the
           closed-form spin replay cannot reproduce that *)
        Core_spin.note_dirty t;
        e.state <- Rob.Done
      | Instr.Fs_end cid ->
        Scope_unit.on_fs_end t.scope ~cid;
        Core_spin.note_dirty t;
        e.state <- Rob.Done
      | Instr.Jump target ->
        e.state <- Rob.Done;
        t.fetch_pc <- target
      | Instr.Halt ->
        e.state <- Rob.Done;
        t.fetch_stopped <- true;
        halt_fetch := true
      | Instr.Fence kind ->
        e.fence_wait <- Some (Scope_unit.fence_scope t.scope kind);
        (match Scope_unit.current_cid t.scope with
        | Some cid -> e.fence_cid <- cid
        | None -> ());
        if t.cfg.in_window_speculation || t.cfg.nop_fences then begin
          e.fence_issued <- true;
          e.state <- Rob.Done
        end
      | Instr.Load { flagged; _ } | Instr.Store { flagged; _ } | Instr.Cas { flagged; _ }
        ->
        let mask = Scope_unit.decode_mask t.scope ~flagged in
        e.scope_mask <- mask;
        Scope_unit.on_bits_set t.scope mask
      | Instr.Branch { target; _ } ->
        let predicted = Branch_pred.predict t.bpred ~pc in
        e.predicted_taken <- predicted;
        e.checkpoint <- Some (Array.copy t.rename);
        Scope_unit.on_branch t.scope ~id:seq;
        t.counts.branches <- t.counts.branches + 1;
        t.fetch_pc <- (if predicted then target else pc + 1)
      | Instr.Li _ | Instr.Alu _ | Instr.Tid _ -> ());
      (match instr with
      | Instr.Jump _ | Instr.Branch _ | Instr.Halt -> ()
      | _ -> t.fetch_pc <- pc + 1);
      (match Instr.writes_reg instr with
      | Some r -> t.rename.(Reg.index r) <- Rob.Rob seq
      | None -> ());
      Rob.dispatch t.rob e;
      decr budget
    done
  end;
  !progress
