(** Whole-machine checkpoints (DESIGN §15).

    The complete simulation state at the top of one engine cycle —
    every core ({!Fscope_cpu.Core.snapshot}), the flat memory image,
    the cache hierarchy and the engine's wake array — as one JSON
    document.  Configuration and instructions are not stored; the
    caller rebuilds both and {!validate} checks them against the
    embedded digest.  The detailed engine ({!Sim_engine.run})
    captures and restores checkpoints. *)

type t = {
  cycle : int;  (** the engine resumes at the top of this cycle *)
  digest : string;
      (** MD5 over exec/mem/scope configs and the full program image;
          wall-clock knobs ([max_cycles], [sampling])
          are excluded so a resume may extend the budget *)
  wake : int array;
      (** per-core event horizons, verbatim — frozen cores' skipped
          spans are pre-charged at freeze time and must not be
          re-charged on resume *)
  cores : Fscope_util.Json.t array;
  mem : int array;
  hierarchy : Fscope_util.Json.t;
}

val digest : Config.t -> Fscope_isa.Program.t -> string

val to_json : ?compact:bool -> t -> Fscope_util.Json.t
(** [compact] (default [false]) selects the ["fscope-checkpoint/v1z"]
    sibling: the same document with every shrinkable array — the
    mostly-zero memory image, ARFs and predictor tables, the
    run-heavy cache slot and ROB operand arrays — rewritten through
    the shared packing ({!Fscope_util.Json.pack_arrays}).  Combined
    with the minified rendering {!save} uses for it, ≥5× smaller
    than the pretty plain form at production core counts; {!of_json}
    reads both forms, so resume is bit-identical through either. *)

val of_json : Fscope_util.Json.t -> t
(** Raises [Failure] on a malformed document.  Accepts both the plain
    v1 and compact v1z schemas. *)

val save : ?compact:bool -> t -> file:string -> unit
(** Plain saves pretty-print (readable, diffable); [compact] saves
    minify on top of the array packing. *)

val load : file:string -> t
(** Raises [Failure] on an unreadable or malformed file. *)

val validate : t -> Config.t -> Fscope_isa.Program.t -> unit
(** Raises [Failure] when the checkpoint's digest does not match the
    given config and program. *)
