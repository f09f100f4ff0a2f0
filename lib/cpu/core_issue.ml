(* Out-of-order issue with conservative memory disambiguation and
   store-to-load forwarding.

   Progress reporting matters here beyond the obvious issue slots:
   computing a store/load/CAS address (even when the access cannot
   issue yet) mutates disambiguation state that younger entries see,
   so it must count as progress for the fast-forwarding engine.

   This stage runs every cycle over a nearly full ROB, so it allocates
   nothing: operands are read in place ([src_ready] / [src_get]) and
   every ordering check is a top-level recursive scan over seqs, with
   no closure. *)

module Instr = Fscope_isa.Instr
module Fsb = Fscope_core.Fsb
open Core_state

(* Is an older entry something the fence's flavour must still wait
   for?  Loads and CAS: until their value is bound (CAS also writes, so
   it is in both classes).  Stores: as long as they are in the ROB they
   have not even reached the store buffer. *)
let mem_incomplete (k : Fscope_isa.Fence_kind.t) (o : Rob.entry) =
  match o.instr with
  | Instr.Load _ -> k.Fscope_isa.Fence_kind.wait_loads && o.state <> Rob.Done
  | Instr.Cas _ ->
    (k.Fscope_isa.Fence_kind.wait_loads || k.Fscope_isa.Fence_kind.wait_stores)
    && o.state <> Rob.Done
  | Instr.Store _ -> k.Fscope_isa.Fence_kind.wait_stores
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _ | Instr.Jump _
  | Instr.Fence _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    false

(* Does any entry in seqs [s, stop) block a fence of flavour [k]?  With
   [global] every entry is in scope; otherwise only those whose scope
   bits meet [mask]. *)
let rec fence_blocked rob k ~global ~mask s stop =
  s < stop
  && (let o = Rob.get rob s in
      ((global || not (Fsb.is_empty (Fsb.inter o.scope_mask mask))) && mem_incomplete k o)
      || fence_blocked rob k ~global ~mask (s + 1) stop)

let fence_issue_ok t (e : Rob.entry) k =
  let head = Rob.head_seq t.rob in
  let wait_stores = k.Fscope_isa.Fence_kind.wait_stores in
  match e.fence_wait with
  | None -> assert false
  | Some `Global ->
    (not (fence_blocked t.rob k ~global:true ~mask:Fsb.empty head e.seq))
    && ((not wait_stores) || Store_buffer.is_empty t.sb)
  | Some (`Mask m) ->
    (not (fence_blocked t.rob k ~global:false ~mask:m head e.seq))
    && ((not wait_stores) || not (Store_buffer.mask_overlaps t.sb m))

(* Load disambiguation is conservative: any older store/CAS with an
   unknown address blocks the load.  The issue pass tracks that case
   itself, so this scan runs only when every older store/CAS address is
   known.  One backward pass over the entries older than the load (seqs
   [s] down to [head]): an older same-address load still in flight
   blocks it (same-address load-load order is coherence); otherwise the
   youngest older same-address writer decides.  It must have completed,
   and it is returned by seq.  The pass stops at the first blocker; past
   a completed writer it only looks for blockers. *)
let must_wait = -2
let no_writer = -1

let rec disambiguate rob ~addr ~head s found =
  if s < head then found
  else
    let o = Rob.get rob s in
    match o.instr with
    | (Instr.Store _ | Instr.Cas _) when found = no_writer && o.addr = addr ->
      if o.state = Rob.Done then disambiguate rob ~addr ~head (s - 1) s else must_wait
    | Instr.Load _ when o.addr = addr && o.state <> Rob.Done -> must_wait
    | _ -> disambiguate rob ~addr ~head (s - 1) found

(* The level record kept on the entry, as shared constants. *)
let level_some : Fscope_obs.Event.mem_outcome -> _ = function
  | Fscope_obs.Event.L1_hit -> Some Fscope_obs.Event.L1_hit
  | Fscope_obs.Event.L2_hit -> Some Fscope_obs.Event.L2_hit
  | Fscope_obs.Event.L2_miss -> Some Fscope_obs.Event.L2_miss

let forward_load t (e : Rob.entry) ~cycle v =
  e.result <- v;
  e.data2 <- 1;
  Rob.set_exec t.rob e ~done_at:(cycle + 1);
  (* a forward implies a store in flight — not a stable spin *)
  Core_spin.note_dirty t

let load_from_memory t (e : Rob.entry) ~cycle =
  if in_bounds t e.addr then begin
    let completes, level =
      Mem_port.issue_classified t.port ~core:t.id Mem_port.Read ~addr:e.addr ~now:cycle
    in
    e.data2 <- 0;
    e.mem_level <- level_some level;
    Rob.set_exec t.rob e ~done_at:completes;
    Core_spin.note_load t ~addr:e.addr ~level
  end
  else begin
    (* Wrong-path access to a garbage address: complete immediately
       with 0 and leave the caches untouched. *)
    e.result <- 0;
    e.data2 <- 1;
    Rob.set_exec t.rob e ~done_at:(cycle + 1);
    Core_spin.note_dirty t
  end

let try_issue_load t (e : Rob.entry) ~cycle =
  let head = Rob.head_seq t.rob in
  let w = disambiguate t.rob ~addr:e.addr ~head (e.seq - 1) no_writer in
  if w = must_wait then false
  else begin
    (if w = no_writer then
       match Store_buffer.forward t.sb ~addr:e.addr with
       | Some v -> forward_load t e ~cycle v
       | None -> load_from_memory t e ~cycle
     else
       let o = Rob.get t.rob w in
       match o.instr with
       | Instr.Store _ -> forward_load t e ~cycle o.data
       | _ ->
         (* A completed CAS has already written memory; the load can
            read it there.  (No younger committed store can sit in the
            store buffer while the CAS is still in the ROB: commit is
            in order, and the CAS's own issue condition drained older
            same-address entries.) *)
         load_from_memory t e ~cycle);
    true
  end

(* CAS performs a memory write at completion, which cannot be undone:
   it must be non-speculative (no unresolved older branch, no older
   uncommitted fence) and ordered after every older same-address
   access.  Like [disambiguate], this runs only once every older
   store/CAS address is known.  Scans seqs [s, stop). *)
let rec cas_blocked t ~addr s stop =
  s < stop
  && (let o = Rob.get t.rob s in
      (match o.instr with
      | Instr.Branch _ -> o.state <> Rob.Done
      | Instr.Fence _ -> not t.cfg.nop_fences
      | Instr.Store _ -> o.addr = addr
      | Instr.Cas _ | Instr.Load _ -> o.addr = addr && o.state <> Rob.Done
      | _ -> false)
      || cas_blocked t ~addr (s + 1) stop)

let cas_issue_ok t (e : Rob.entry) =
  (not (cas_blocked t ~addr:e.addr (Rob.head_seq t.rob) e.seq))
  && not (Store_buffer.has_addr t.sb ~addr:e.addr)

let issue t ~cycle =
  let rob = t.rob in
  let progress = ref false in
  let budget = ref t.cfg.issue_width in
  (* In the non-speculative pipeline, an unissued fence whose flavour
     has [block_loads] blocks the issue of every younger load; any
     unissued fence blocks younger CAS and keeps younger fences from
     issuing (fences issue oldest-first). *)
  let pending_fence = ref false in
  let pending_blocking_fence = ref false in
  (* Has the pass gone by a store/CAS whose address is still unknown?
     Then every younger load and CAS must wait.  Entries the pass has
     gone by do not change again within it, so the flag is exact. *)
  let unknown_writer = ref false in
  let s = ref (Rob.head_seq rob) in
  let tail = Rob.next_seq rob in
  (* Issue never removes entries, so the window is fixed for the pass;
     it ends early once the issue slots are spent. *)
  while !s < tail && !budget > 0 do
    let e = Rob.get rob !s in
    incr s;
    (match (e.instr, e.state) with
    | Instr.Fence k, _ when not e.fence_issued ->
      if (not t.cfg.in_window_speculation) && (not !pending_fence) && fence_issue_ok t e k
      then begin
        e.fence_issued <- true;
        e.state <- Rob.Done;
        progress := true;
        decr budget
      end
      else begin
        pending_fence := true;
        if k.Fscope_isa.Fence_kind.block_loads then pending_blocking_fence := true
      end
    | Instr.Li (_, v), Rob.Waiting ->
      e.result <- v;
      Rob.set_exec rob e ~done_at:(cycle + 1);
      progress := true;
      decr budget
    | Instr.Tid _, Rob.Waiting ->
      e.result <- t.id;
      Rob.set_exec rob e ~done_at:(cycle + 1);
      progress := true;
      decr budget
    | Instr.Alu (op, _, _, operand), Rob.Waiting ->
      if srcs_ready t cycle e then begin
        let a = src_get t e.srcs.(0) in
        let b =
          match operand with Instr.Reg _ -> src_get t e.srcs.(1) | Instr.Imm i -> i
        in
        e.result <- eval_alu op a b;
        Rob.set_exec rob e ~done_at:(cycle + 1);
        progress := true;
        decr budget
      end
    | Instr.Branch { cond; _ }, Rob.Waiting ->
      if src_ready t cycle e.srcs.(0) then begin
        let v = src_get t e.srcs.(0) in
        let taken = match cond with Instr.Eqz -> v = 0 | Instr.Nez -> v <> 0 in
        e.result <- (if taken then 1 else 0);
        Rob.set_exec rob e ~done_at:(cycle + 1);
        progress := true;
        decr budget
      end
    | Instr.Store { off; _ }, Rob.Waiting ->
      (* Address generation does not wait for the data: younger
         loads disambiguate against the address as soon as the
         base register is ready. *)
      if e.addr < 0 && src_ready t cycle e.srcs.(1) then begin
        e.addr <- src_get t e.srcs.(1) + off;
        progress := true
      end;
      if e.addr >= 0 && src_ready t cycle e.srcs.(0) then begin
        e.data <- src_get t e.srcs.(0);
        Rob.set_exec rob e ~done_at:(cycle + 1);
        progress := true;
        decr budget
      end
    | Instr.Load { off; _ }, Rob.Waiting ->
      (* Address generation is free as soon as the base is ready;
         the issue slot is only spent on the actual access. *)
      if e.addr < 0 && src_ready t cycle e.srcs.(0) then begin
        e.addr <- src_get t e.srcs.(0) + off;
        progress := true
      end;
      if e.addr >= 0
         && (not !unknown_writer)
         && ((not !pending_blocking_fence) || t.cfg.in_window_speculation)
         && try_issue_load t e ~cycle
      then begin
        progress := true;
        decr budget
      end
    | Instr.Cas { off; _ }, Rob.Waiting ->
      if e.addr < 0 && srcs_ready t cycle e then begin
        e.addr <- src_get t e.srcs.(0) + off;
        e.data2 <- src_get t e.srcs.(1);
        e.data <- src_get t e.srcs.(2);
        progress := true
      end;
      if e.addr >= 0
         && (not !unknown_writer)
         && (not !pending_fence) (* CAS never passes a fence speculatively *)
         && cas_issue_ok t e
      then begin
        if not (in_bounds t e.addr) then
          invalid_arg
            (Printf.sprintf "core %d: CAS on out-of-bounds address %d (pc %d)" t.id e.addr
               e.pc);
        let completes, level =
          Mem_port.issue_classified t.port ~core:t.id Mem_port.Rmw ~addr:e.addr ~now:cycle
        in
        e.mem_level <- level_some level;
        Rob.set_exec rob e ~done_at:completes;
        progress := true;
        decr budget
      end
    | ( ( Instr.Nop | Instr.Jump _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt
        | Instr.Fence _ ),
        _ )
    | _, (Rob.Executing | Rob.Done) ->
      ());
    match e.instr with
    | (Instr.Store _ | Instr.Cas _) when e.addr < 0 -> unknown_writer := true
    | _ -> ()
  done;
  !progress
