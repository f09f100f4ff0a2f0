type producer =
  | Arch
  | Rob of int

type src = {
  producer : producer;
  reg : Fscope_isa.Reg.t;
}

type exec_state =
  | Waiting
  | Executing
  | Done

type entry = {
  seq : int;
  pc : int;
  instr : Fscope_isa.Instr.t;
  srcs : src array;
  mutable state : exec_state;
  mutable done_at : int;
  mutable result : int;
  mutable addr : int;
  mutable data : int;
  mutable data2 : int;
  mutable scope_mask : Fscope_core.Fsb.mask;
  mutable fence_wait : [ `Global | `Mask of Fscope_core.Fsb.mask ] option;
  mutable fence_issued : bool;
  mutable fence_cid : int;
  mutable mem_level : Fscope_obs.Event.mem_outcome option;
  mutable predicted_taken : bool;
  mutable checkpoint : producer array option;
}

let make_entry ~seq ~pc ~instr ~srcs =
  {
    seq;
    pc;
    instr;
    srcs;
    state = Waiting;
    done_at = 0;
    result = 0;
    addr = -1;
    data = 0;
    data2 = 0;
    scope_mask = Fscope_core.Fsb.empty;
    fence_wait = None;
    fence_issued = false;
    fence_cid = -1;
    mem_level = None;
    predicted_taken = false;
    checkpoint = None;
  }

(* [slots] is a ring indexed from [head_slot] (= [head_seq mod size],
   kept incrementally so lookups never divide); free slots hold
   [vacant]. *)
type t = {
  size : int;
  slots : entry array;
  mutable head_seq : int;
  mutable head_slot : int;
  mutable tail_seq : int;
  (* A lower bound on [done_at] over every [Executing] entry (see the
     interface).  [set_exec] lowers it as entries start executing;
     removing or finishing an entry can only raise the true minimum, so
     those paths leave it alone. *)
  mutable due_lo : int;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let vacant = make_entry ~seq:(-1) ~pc:(-1) ~instr:Fscope_isa.Instr.Nop ~srcs:[||]

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~size () =
  if size <= 0 then invalid_arg "Rob.create: size must be positive";
  {
    size;
    slots = Array.make size vacant;
    head_seq = 0;
    head_slot = 0;
    tail_seq = 0;
    due_lo = max_int;
    trace;
    core;
  }

(* The slot of an in-flight seq, or of the next one to dispatch. *)
let slot t seq =
  let i = t.head_slot + (seq - t.head_seq) in
  if i >= t.size then i - t.size else i

let instr_class (i : Fscope_isa.Instr.t) : Fscope_obs.Event.instr_class =
  match i with
  | Fscope_isa.Instr.Load _ -> Fscope_obs.Event.Load
  | Fscope_isa.Instr.Store _ -> Fscope_obs.Event.Store
  | Fscope_isa.Instr.Cas _ -> Fscope_obs.Event.Cas
  | Fscope_isa.Instr.Fence _ -> Fscope_obs.Event.Fence
  | Fscope_isa.Instr.Branch _ -> Fscope_obs.Event.Branch
  | Fscope_isa.Instr.Jump _ -> Fscope_obs.Event.Jump
  | Fscope_isa.Instr.Li _ | Fscope_isa.Instr.Alu _ | Fscope_isa.Instr.Tid _ ->
    Fscope_obs.Event.Alu
  | Fscope_isa.Instr.Nop | Fscope_isa.Instr.Fs_start _ | Fscope_isa.Instr.Fs_end _
  | Fscope_isa.Instr.Halt ->
    Fscope_obs.Event.Other

let size t = t.size
let count t = t.tail_seq - t.head_seq
let is_full t = count t >= t.size
let is_empty t = count t = 0
let next_seq t = t.tail_seq

let dispatch t entry =
  if is_full t then invalid_arg "Rob.dispatch: full";
  if entry.seq <> t.tail_seq then invalid_arg "Rob.dispatch: wrong seq";
  t.slots.(slot t entry.seq) <- entry;
  t.tail_seq <- t.tail_seq + 1;
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Rob_dispatch { pc = entry.pc; cls = instr_class entry.instr })

let contains t seq = seq >= t.head_seq && seq < t.tail_seq

let get t seq =
  if not (contains t seq) then invalid_arg "Rob.get: seq not in flight";
  t.slots.(slot t seq)

let head t = if is_empty t then None else Some (get t t.head_seq)

let pop_head t =
  if is_empty t then invalid_arg "Rob.pop_head: empty";
  let e = t.slots.(t.head_slot) in
  t.slots.(t.head_slot) <- vacant;
  t.head_seq <- t.head_seq + 1;
  t.head_slot <- (if t.head_slot + 1 = t.size then 0 else t.head_slot + 1);
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Rob_commit { pc = e.pc; cls = instr_class e.instr });
  e

let squash_after t seq =
  let removed = ref [] in
  for s = t.tail_seq - 1 downto max (seq + 1) t.head_seq do
    removed := get t s :: !removed;
    t.slots.(slot t s) <- vacant
  done;
  if seq + 1 < t.tail_seq then t.tail_seq <- max (seq + 1) t.head_seq;
  !removed

let iter t f =
  for s = t.head_seq to t.tail_seq - 1 do
    f (get t s)
  done

let head_seq t = t.head_seq

let set_exec t e ~done_at =
  e.state <- Executing;
  e.done_at <- done_at;
  if done_at < t.due_lo then t.due_lo <- done_at

let due_lo t = t.due_lo
let set_due_lo_after_scan t d = t.due_lo <- d

(* Checkpoint restore: overwrite the whole window.  Entries must be
   consecutive by seq starting at [head_seq] (the caller rebuilt them
   from a serialized snapshot); emits nothing — checkpointing is an
   untraced-run facility. *)
let restore t ~head_seq entries =
  if List.length entries > t.size then invalid_arg "Rob.restore: too many entries";
  Array.fill t.slots 0 t.size vacant;
  t.due_lo <- min_int;
  t.head_seq <- head_seq;
  t.head_slot <- head_seq mod t.size;
  t.tail_seq <- head_seq;
  List.iter
    (fun e ->
      if e.seq <> t.tail_seq then invalid_arg "Rob.restore: non-consecutive seq";
      t.slots.(slot t e.seq) <- e;
      t.tail_seq <- t.tail_seq + 1)
    entries
