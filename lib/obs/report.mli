(** The frozen observability result of one machine run.

    Built by the machine after the cycle loop from the live trace: the
    merged event stream, the metrics registry (already including the
    snapshot of every legacy per-core / cache stat — see
    {!Metrics}) and the run's shape.  This is what
    [Machine.result.obs] carries and what every {!Sink} renders. *)

type t = {
  cycles : int;
  timed_out : bool;
  cores : int;
  events : Event.timed list;  (** merged, (cycle, core)-ordered *)
  dropped : int;  (** events lost to ring-buffer overwrites *)
  metrics : Metrics.t;
}

val of_trace : cycles:int -> timed_out:bool -> Trace.t -> t

val events_count : t -> int

val counter : t -> string -> int
(** Registry counter by name, 0 if absent — convenience for sinks and
    tests reading the snapshot namespace. *)
