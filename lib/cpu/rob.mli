(** The reorder buffer.

    A ring of in-flight instructions, each carrying a global sequence
    number ([seq]).  Instructions dispatch at the tail, execute out of
    order, and commit in order from the head.  A branch misprediction
    squashes every entry younger than the branch.

    Each entry carries the paper's per-entry fence scope bits
    ([scope_mask]) and, for fences, the wait condition captured from
    the {!Fscope_core.Scope_unit} at dispatch.

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
    {!set_addr}, {!park}, {!pop_head}, {!squash_after} and {!restore}, so
    every change of [state] after dispatch, and every address an issue
    stage computes, goes through them.  {!restore} derives the first
    three sets from the entries and starts with nothing parked. *)

type producer =
  | Arch  (** value lives in the architectural register file *)
  | Rob of int  (** produced by the in-flight entry with this seq *)

type src = {
  producer : producer;
  reg : Fscope_isa.Reg.t;
}

type exec_state =
  | Waiting  (** operands not ready or structural/ordering hazard *)
  | Executing  (** issued; completes at the entry's [done_at] cycle *)
  | Done

type entry = {
  seq : int;
  pc : int;
  instr : Fscope_isa.Instr.t;
  srcs : src array;
      (** positional operands as execution consumes them: ALU [a] (then
          [b] for a register operand), load [base], store [src; base],
          CAS [base; expected; desired], branch [src] *)
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
  mutable checkpoint : producer array option;  (** rename snapshot, branches only *)
}

val make_entry : seq:int -> pc:int -> instr:Fscope_isa.Instr.t -> srcs:src array -> entry

type t

val create : ?trace:Fscope_obs.Trace.t -> ?core:int -> size:int -> unit -> t
(** When [trace] is live, [dispatch] and [pop_head] emit
    [Rob_dispatch] / [Rob_commit] events for [core].  Defaults to the
    disabled {!Fscope_obs.Trace.null}. *)

val size : t -> int
val count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val next_seq : t -> int
(** The seq the next dispatched entry must carry. *)

val dispatch : t -> entry -> unit
(** Append at the tail.  Raises [Invalid_argument] if full or if the
    entry's seq is not [next_seq]. *)

val contains : t -> int -> bool
(** Is [seq] currently in flight? *)

val get : t -> int -> entry
(** Entry by seq.  Raises [Invalid_argument] if not in flight. *)

val head : t -> entry option

val pop_head : t -> entry
(** Commit the head.  Raises [Invalid_argument] if empty. *)

val squash_after : t -> int -> entry list
(** [squash_after t seq] removes every entry with a seq strictly
    greater than [seq] and returns them (oldest first) so the caller
    can release their side state. *)

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
    (a squash that removes [e] finds the producer through [e.srcs]).
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

val restore : t -> head_seq:int -> entry list -> unit
(** Checkpoint restore: replace the whole window with [entries], which
    must carry consecutive seqs starting at [head_seq] (oldest first).
    Rebuilds the index from the entries' states and addresses, with
    nothing parked.  Emits no events. *)
