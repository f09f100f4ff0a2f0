(** The reorder buffer.

    A circular buffer of in-flight instructions indexed by a global
    sequence number ([seq]); slot = [seq mod size].  Instructions
    dispatch at the tail, execute out of order, and commit in order
    from the head.  A branch misprediction squashes every entry
    younger than the branch.

    Each entry carries the paper's per-entry fence scope bits
    ([scope_mask]) and, for fences, the wait condition captured from
    the {!Fscope_core.Scope_unit} at dispatch. *)

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
          entries executing through {!set_exec}, which keeps the
          completion bound below valid. *)
  mutable result : int;  (** dst value: load data, ALU result, CAS success bit *)
  mutable addr : int;  (** memory address once computed; -1 = unknown *)
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

(** {2 Completion bound}

    [due_lo] is a lower bound on [done_at] over every [Executing]
    entry ([max_int] when nothing can be pending).  A completion scan
    at [cycle < due_lo t] would find nothing due, so the pipeline
    stages skip it.  A bound that is too low only costs a scan. *)

val set_exec : t -> entry -> done_at:int -> unit
(** Mark an entry [Executing] until [done_at], lowering [due_lo] to
    cover it.  This is the only way an entry becomes [Executing]: every
    issue path and the checkpoint decoder go through here. *)

val due_lo : t -> int

val set_due_lo_after_scan : t -> int -> unit
(** Only for [Core_exec.finalize], which walks the whole window and
    passes the exact minimum [done_at] over the entries still
    [Executing] after its walk ([max_int] if none).  A higher value
    would skip a due completion. *)

val restore : t -> head_seq:int -> entry list -> unit
(** Checkpoint restore: replace the whole window with [entries], which
    must carry consecutive seqs starting at [head_seq] (oldest first).
    Resets [due_lo] to [min_int], so the next completion scans run and
    recompute it.  Emits no events. *)
