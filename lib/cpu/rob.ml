type exec_state =
  | Waiting
  | Executing
  | Done

let arch = -1
let max_srcs = 3

type entry = {
  mutable seq : int;
  mutable pc : int;
  mutable instr : Fscope_isa.Instr.t;
  src_producer : int array;
  src_reg : Fscope_isa.Reg.t array;
  mutable src_count : int;
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
  checkpoint : int array;
  mutable checkpointed : bool;
}

let slot_entry () =
  {
    seq = -1;
    pc = -1;
    instr = Fscope_isa.Instr.Nop;
    src_producer = Array.make max_srcs arch;
    src_reg = Array.make max_srcs Fscope_isa.Reg.zero;
    src_count = 0;
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
    checkpoint = Array.make Fscope_isa.Reg.count arch;
    checkpointed = false;
  }

(* Every field as a fresh dispatch has it.  The operand and checkpoint
   arrays are left as they are: [src_count] and [checkpointed] say how
   much of them is live. *)
let reset e ~seq ~pc ~instr =
  e.seq <- seq;
  e.pc <- pc;
  e.instr <- instr;
  e.src_count <- 0;
  e.state <- Waiting;
  e.done_at <- 0;
  e.result <- 0;
  e.addr <- -1;
  e.data <- 0;
  e.data2 <- 0;
  e.scope_mask <- Fscope_core.Fsb.empty;
  e.fence_wait <- None;
  e.fence_issued <- false;
  e.fence_cid <- -1;
  e.mem_level <- None;
  e.predicted_taken <- false;
  e.checkpointed <- false

module Bitset = Fscope_util.Bitset

(* [slots] is a ring indexed from [head_slot] (= [head_seq mod size],
   kept incrementally so lookups never divide).  Every slot owns one
   entry for the ROB's lifetime; a free slot keeps its last occupant's
   stale fields until [dispatch] resets them.  The bitsets are the slot
   index described in the interface: each holds in-flight slots only,
   and [waiters.(p)] holds the consumer slots parked on the producer in
   slot [p]. *)
type t = {
  size : int;
  slots : entry array;
  mutable head_seq : int;
  mutable head_slot : int;
  mutable tail_seq : int;
  not_done : Bitset.t;
  executing : Bitset.t;
  parked : Bitset.t;
  unknown_writers : Bitset.t;
  waiters : Bitset.t array;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~size () =
  if size <= 0 then invalid_arg "Rob.create: size must be positive";
  let set () = Bitset.create ~bits:size in
  {
    size;
    slots = Array.init size (fun _ -> slot_entry ());
    head_seq = 0;
    head_slot = 0;
    tail_seq = 0;
    not_done = set ();
    executing = set ();
    parked = set ();
    unknown_writers = set ();
    waiters = Array.init size (fun _ -> set ());
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

let unknown_writer (e : entry) =
  match e.instr with
  | Fscope_isa.Instr.Store _ | Fscope_isa.Instr.Cas _ -> e.addr < 0
  | _ -> false

(* Drop slot [i] from every set. *)
let vacate t i =
  Bitset.remove t.not_done i;
  Bitset.remove t.executing i;
  Bitset.remove t.parked i;
  Bitset.remove t.unknown_writers i;
  Bitset.clear t.waiters.(i)

(* A fresh entry is waiting, so it is not done, and a store or CAS has
   no address yet; nothing is parked on arrival. *)
let dispatch t ~pc ~instr =
  if is_full t then invalid_arg "Rob.dispatch: full";
  let i = slot t t.tail_seq in
  let e = t.slots.(i) in
  reset e ~seq:t.tail_seq ~pc ~instr;
  Bitset.add t.not_done i;
  if unknown_writer e then Bitset.add t.unknown_writers i;
  t.tail_seq <- t.tail_seq + 1;
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Rob_dispatch { pc; cls = instr_class instr });
  e

let contains t seq = seq >= t.head_seq && seq < t.tail_seq

let get t seq =
  if not (contains t seq) then invalid_arg "Rob.get: seq not in flight";
  t.slots.(slot t seq)

let head t = if is_empty t then None else Some (get t t.head_seq)

let pop_head t =
  if is_empty t then invalid_arg "Rob.pop_head: empty";
  let e = t.slots.(t.head_slot) in
  vacate t t.head_slot;
  t.head_seq <- t.head_seq + 1;
  t.head_slot <- (if t.head_slot + 1 = t.size then 0 else t.head_slot + 1);
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Rob_commit { pc = e.pc; cls = instr_class e.instr });
  e

(* A squashed consumer may be parked on a producer that survives the
   squash: take it off that producer's waiters so a later occupant of
   its slot is not released by it. *)
let unlink_parked t i (e : entry) ~survivors =
  if Bitset.mem t.parked i then
    for k = 0 to e.src_count - 1 do
      let p = e.src_producer.(k) in
      if p >= t.head_seq && p <= survivors then Bitset.remove t.waiters.(slot t p) i
    done

let squash_after t seq =
  for s = t.tail_seq - 1 downto max (seq + 1) t.head_seq do
    let i = slot t s in
    unlink_parked t i t.slots.(i) ~survivors:seq;
    vacate t i
  done;
  if seq + 1 < t.tail_seq then t.tail_seq <- max (seq + 1) t.head_seq

let iter t f =
  for s = t.head_seq to t.tail_seq - 1 do
    f (get t s)
  done

let head_seq t = t.head_seq

(* ------------------------------------------------------------------ *)
(* Index updates *)

let set_exec t e ~done_at =
  e.state <- Executing;
  e.done_at <- done_at;
  Bitset.add t.executing (slot t e.seq)

let set_done t e =
  let i = slot t e.seq in
  e.state <- Done;
  Bitset.remove t.not_done i;
  Bitset.remove t.executing i;
  let w = t.waiters.(i) in
  Bitset.diff_into t.parked w;
  Bitset.clear w

let set_addr t e addr =
  e.addr <- addr;
  if addr >= 0 then Bitset.remove t.unknown_writers (slot t e.seq)

let park t e ~on =
  if not (contains t on) then invalid_arg "Rob.park: producer not in flight";
  let i = slot t e.seq in
  Bitset.add t.parked i;
  Bitset.add t.waiters.(slot t on) i

(* ------------------------------------------------------------------ *)
(* Queries: the first in-flight seq >= [s] whose slot is in [set]
   (and, for the issue walk, not parked), or [tail_seq].  Slots
   [head_slot, size) hold the older part of a wrapped ring and
   [0, head_slot) the younger, so a scan starting in the older part
   continues from slot 0, and a hit at or past [head_slot] after that
   (or from a start in the younger part) is older than [s]. *)
let find t set ~issuable i =
  if issuable then Bitset.next_diff set t.parked i else Bitset.next set i

let next_in t set ~issuable s =
  let s = if s < t.head_seq then t.head_seq else s in
  if s >= t.tail_seq then t.tail_seq
  else
    let i = slot t s in
    let j = find t set ~issuable i in
    if i >= t.head_slot then
      if j >= 0 then s + (j - i)
      else
        let j = find t set ~issuable 0 in
        if j >= 0 && j < t.head_slot then s + (t.size - i) + j else t.tail_seq
    else if j >= 0 && j < t.head_slot then s + (j - i)
    else t.tail_seq

let next_not_done t s = next_in t t.not_done ~issuable:false s
let next_issuable t s = next_in t t.not_done ~issuable:true s
let next_executing t s = next_in t t.executing ~issuable:false s
let next_parked t s = next_in t t.parked ~issuable:false s
let next_unknown_writer t s = next_in t t.unknown_writers ~issuable:false s

(* Checkpoint restore and the sampled-mode flush start from an empty
   window at an arbitrary seq. *)
let reset_window t ~head_seq =
  for i = 0 to t.size - 1 do
    vacate t i
  done;
  t.head_seq <- head_seq;
  t.head_slot <- head_seq mod t.size;
  t.tail_seq <- head_seq
