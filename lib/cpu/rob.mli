(** The reorder buffer.

    A ring of in-flight instructions, each carrying a global sequence
    number ([seq]).  Instructions dispatch at the tail, execute out of
    order, and commit in order from the head.  A branch misprediction
    squashes every entry younger than the branch.

    Each entry carries the paper's per-entry fence scope bits
    ([scope_mask]) and, for fences, the wait condition captured from
    the {!Fscope_core.Scope_unit} at dispatch.

    {2 Slot-resident entries}

    As in hardware, the ROB is a fixed array of slots, and each slot
    owns one mutable entry for the ROB's lifetime, with a fixed
    {!max_srcs}-wide operand store and its own rename-checkpoint
    array.  {!dispatch} resets the tail slot's entry in place and hands
    it out; nothing on the dispatch, commit or squash path allocates.

    {b Ownership.}  Entries belong to the ROB and are recycled.  An
    entry is valid only while its seq is in flight: after
    {!pop_head} or {!squash_after} removes it, its fields stay readable
    only until the next {!dispatch} (or {!reset_window}) reuses the
    slot.  No caller may hold an entry across those calls; keep the
    seq and look the entry up again with {!get}.

    {2 The slot index}

    The pipeline stages do not rescan the window.  The ROB keeps
    per-slot bitsets ({!Fscope_util.Bitset}) over the in-flight
    entries, with these invariants after every operation below:
    - {b not-done} holds exactly the entries whose [state] is not
      [Done];
    - {b executing} holds exactly the [Executing] entries;
    - {b unknown-address writers} holds exactly the stores and CAS
      whose [addr] is negative;
    - {b parked} holds only [Waiting] entries that read an operand
      whose producer is in flight and not [Done] (set by {!park}).  It
      is a hint, not a definition: a waiting entry outside it is
      simply visited and parked again.  Each producer slot also keeps
      the consumer slots parked on it, and {!set_done} releases them.

    The index changes only in {!dispatch}, {!set_exec}, {!set_done},
    {!set_addr}, {!park}, {!pop_head}, {!squash_after} and
    {!reset_window}, so every change of [state] after dispatch, and
    every address an issue stage computes, goes through them. *)

(** {2 Producers}

    A register's producer is an int: {!arch} when the value lives in
    the architectural register file, otherwise the seq of the
    in-flight entry that produces it.  A seq that has since committed
    reads as {!arch}. *)

val arch : int
(** [-1]: the architectural register file. *)

val max_srcs : int
(** Width of every entry's operand store (3: CAS reads base, expected
    and desired). *)

type exec_state =
  | Waiting  (** operands not ready or structural/ordering hazard *)
  | Executing  (** issued; completes at the entry's [done_at] cycle *)
  | Done

type entry = {
  mutable seq : int;
  mutable pc : int;
  mutable instr : Fscope_isa.Instr.t;
      (** [seq], [pc] and [instr] are set by {!dispatch}; do not write
          them. *)
  src_producer : int array;
  src_reg : Fscope_isa.Reg.t array;
  mutable src_count : int;
      (** the operand store: positions [0 .. src_count - 1] hold the
          operands as execution consumes them — ALU [a] (then [b] for a
          register operand), load [base], store [src; base], CAS
          [base; expected; desired], branch [src] — each as its
          register and that register's producer at dispatch *)
  mutable state : exec_state;
  mutable done_at : int;
      (** completion cycle while [Executing]; meaningless otherwise.  Mark
          entries executing through {!set_exec} and done through
          {!set_done}, which keep the slot index valid. *)
  mutable result : int;  (** dst value: load data, ALU result, CAS success bit *)
  mutable addr : int;
      (** memory address once computed; negative = unknown.  Set it on an
          in-flight entry through {!set_addr}. *)
  mutable data : int;  (** store data / CAS desired value *)
  mutable data2 : int;  (** CAS expected value *)
  mutable scope_mask : Fscope_core.Fsb.mask;
  mutable fence_wait : [ `Global | `Mask of Fscope_core.Fsb.mask ] option;
  mutable fence_issued : bool;
  mutable fence_cid : int;
      (** fences: the class id the fence was decoded under, or -1 —
          per-scope stall attribution *)
  mutable mem_level : Fscope_obs.Event.mem_outcome option;
      (** loads/CAS: the level serving the in-flight access (set at
          issue); [None] = forwarded or not issued *)
  mutable predicted_taken : bool;
  checkpoint : int array;
      (** the rename map's producers when the branch dispatched, one per
          register; live only while [checkpointed] *)
  mutable checkpointed : bool;  (** branches only *)
}

type t

val create : ?trace:Fscope_obs.Trace.t -> ?core:int -> size:int -> unit -> t
(** Preallocates the [size] slot entries.  When [trace] is live,
    [dispatch] and [pop_head] emit [Rob_dispatch] / [Rob_commit]
    events for [core].  Defaults to the disabled
    {!Fscope_obs.Trace.null}. *)

val size : t -> int
val count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val next_seq : t -> int
(** The seq the next dispatched entry must carry. *)

val dispatch : t -> pc:int -> instr:Fscope_isa.Instr.t -> entry
(** Append [instr] (fetched from [pc]) at the tail with seq
    {!next_seq}, and return the tail slot's entry, reset in place to
    what a fresh dispatch has: [Waiting], no operands, no checkpoint,
    address [-1], every other field at its zero value.  The caller
    fills the operand store and the instruction's fields; state and
    address changes go through the index updates below.  Raises
    [Invalid_argument] if full. *)

val contains : t -> int -> bool
(** Is [seq] currently in flight? *)

val get : t -> int -> entry
(** Entry by seq.  Raises [Invalid_argument] if not in flight. *)

val head : t -> entry option

val pop_head : t -> entry
(** Commit the head and return it (readable until the next
    {!dispatch}).  Raises [Invalid_argument] if empty. *)

val squash_after : t -> int -> unit
(** [squash_after t seq] removes every entry with a seq strictly
    greater than [seq].  A caller that must release their side state
    walks them with {!get} first. *)

val iter : t -> (entry -> unit) -> unit
(** All in-flight entries, oldest first. *)

val head_seq : t -> int
(** The seq of the oldest in-flight entry (= the next to commit). *)

(** {2 Index updates} *)

val set_exec : t -> entry -> done_at:int -> unit
(** Mark an in-flight entry [Executing] until [done_at].  Every issue
    path goes through here. *)

val set_done : t -> entry -> unit
(** Mark an in-flight entry [Done], and release every consumer parked
    on it. *)

val set_addr : t -> entry -> int -> unit
(** Record an in-flight entry's computed address.  A store or CAS
    leaves the unknown-address writers once the address is [>= 0]. *)

val park : t -> entry -> on:int -> unit
(** [park t e ~on] parks the [Waiting] entry [e] until the entry with
    seq [on], the producer of one of [e]'s sources, becomes [Done]
    (a squash that removes [e] finds the producer through [e]'s
    operand store).
    The caller must know that producer is not [Done]; raises
    [Invalid_argument] if it is not in flight. *)

(** {2 Index queries}

    Each returns the first in-flight seq [>= s] in the named set, in
    seq order through the wrapped ring, or {!next_seq} when there is
    none.  They allocate nothing. *)

val next_not_done : t -> int -> int
val next_issuable : t -> int -> int
(** Not done and not parked: the entries the issue stage visits. *)

val next_executing : t -> int -> int
val next_parked : t -> int -> int
val next_unknown_writer : t -> int -> int

val reset_window : t -> head_seq:int -> unit
(** Empty the window, so that the next {!dispatch} gets seq
    [head_seq].  Checkpoint restore then rebuilds the window through
    {!dispatch} and the index updates, the same path as the pipeline;
    the parked set starts empty (it is a hint: a waiting entry outside
    it is simply visited and parked again).  Emits no events. *)
