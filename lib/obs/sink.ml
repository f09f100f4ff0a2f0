let add_args buf args =
  List.iter (fun (k, v) -> Printf.bprintf buf ",\"%s\":%s" k v) args

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let metric_line buf name (s : Metrics.snapshot) =
  match s with
  | Metrics.Counter_v v ->
    Printf.bprintf buf "{\"metric\":\"%s\",\"type\":\"counter\",\"value\":%d}\n" name v
  | Metrics.Histogram_v { count; sum; buckets } ->
    Printf.bprintf buf
      "{\"metric\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum\":%d,\"buckets\":[%s]}\n"
      name count sum
      (String.concat ","
         (List.map (fun (floor, n) -> Printf.sprintf "[%d,%d]" floor n) buckets))
  | Metrics.Gauge_v { count; sum; min; max; last } ->
    Printf.bprintf buf
      "{\"metric\":\"%s\",\"type\":\"gauge\",\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"last\":%d}\n"
      name count sum min max last

let jsonl (r : Report.t) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"trace\":\"fscope\",\"cycles\":%d,\"cores\":%d,\"events\":%d,\"dropped\":%d,\"timed_out\":%b}\n"
    r.cycles r.cores (Report.events_count r) r.dropped r.timed_out;
  List.iter
    (fun (te : Event.timed) ->
      Printf.bprintf buf "{\"cycle\":%d,\"core\":%d,\"event\":\"%s\"" te.cycle te.core
        (Event.name te.event);
      add_args buf (Event.args te.event);
      Buffer.add_string buf "}\n")
    r.events;
  List.iter (fun (name, s) -> metric_line buf name s) (Metrics.snapshot r.metrics);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event (JSON array format)                              *)
(* ------------------------------------------------------------------ *)

(* One "fscope" process, one thread track per simulated core. *)
let chrome (r : Report.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  Printf.bprintf buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"fscope\"}}";
  for core = 0 to r.cores - 1 do
    Printf.bprintf buf
      ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"core %d\"}}"
      core core
  done;
  List.iter
    (fun (te : Event.timed) ->
      let name, ph =
        match Event.phase te.event with
        | `Begin -> ("fence_stall", "B")
        | `End -> ("fence_stall", "E")
        | `Instant -> (Event.name te.event, "i")
      in
      Printf.bprintf buf ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\"%s,\"ts\":%d,\"pid\":0,\"tid\":%d,\"args\":{"
        name
        (Event.category te.event)
        ph
        (if ph = "i" then ",\"s\":\"t\"" else "")
        te.cycle te.core;
      (match Event.args te.event with
      | [] -> ()
      | (k, v) :: rest ->
        Printf.bprintf buf "\"%s\":%s" k v;
        List.iter (fun (k, v) -> Printf.bprintf buf ",\"%s\":%s" k v) rest);
      Buffer.add_string buf "}}")
    r.events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human summary                                                       *)
(* ------------------------------------------------------------------ *)

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

(* Nearest-rank percentile over the log2-bucket histogram, reported as
   the bucket lower bound (the histogram's native resolution). *)
let hist_percentile (h : Metrics.hist_snapshot) q =
  if h.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let rec go seen = function
      | [] -> 0
      | (floor, n) :: rest ->
        let seen = seen + n in
        if seen >= rank then floor else go seen rest
    in
    go 0 h.buckets
  end

let hist_max_floor (h : Metrics.hist_snapshot) =
  List.fold_left (fun acc (floor, _) -> max acc floor) 0 h.buckets

let summary (r : Report.t) =
  let buf = Buffer.create 1024 in
  let c name = Report.counter r name in
  let core_c i field = c (Printf.sprintf "core%d/%s" i field) in
  Printf.bprintf buf "fscope trace summary — %d cores, %d cycles (%s)\n" r.cores r.cycles
    (if r.timed_out then "TIMED OUT" else "completed");
  Printf.bprintf buf "events: %d captured, %d dropped\n" (Report.events_count r)
    r.dropped;
  if r.dropped > 0 then
    Printf.bprintf buf
      "warning: the ring overwrote %d events — event-derived counts below are \
       partial; rerun with a larger --ring-capacity\n"
      r.dropped;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "%-5s %10s %10s %12s %7s %9s %10s %9s\n" "core" "active"
    "committed" "fence-stall" "share" "rob-load" "rob-store" "sb-drain";
  for i = 0 to r.cores - 1 do
    Printf.bprintf buf "%-5d %10d %10d %12d %6.1f%% %9d %10d %9d\n" i
      (core_c i "active_cycles") (core_c i "committed") (core_c i "fence_stall_cycles")
      (pct (core_c i "fence_stall_cycles") (core_c i "active_cycles"))
      (core_c i "stall_rob_load") (core_c i "stall_rob_store") (core_c i "stall_sb")
  done;
  let sum field =
    let t = ref 0 in
    for i = 0 to r.cores - 1 do
      t := !t + core_c i field
    done;
    !t
  in
  Printf.bprintf buf "%-5s %10d %10d %12d %6.1f%% %9d %10d %9d\n" "all"
    (sum "active_cycles") (sum "committed") (c "total/fence_stall_cycles")
    (pct (c "total/fence_stall_cycles") (sum "active_cycles"))
    (sum "stall_rob_load") (sum "stall_rob_store") (sum "stall_sb");
  Printf.bprintf buf "\ntotal fence-stall cycles: %d (%.1f%% of %d active)\n"
    (c "total/fence_stall_cycles")
    (pct (c "total/fence_stall_cycles") (sum "active_cycles"))
    (sum "active_cycles");
  (match
     List.assoc_opt "fence/stall_cycles" (Metrics.snapshot r.metrics)
   with
  | Some (Metrics.Histogram_v { count; sum; buckets }) when count > 0 ->
    Printf.bprintf buf "fence stalls: %d completed, %d cycles total, %.1f avg\n" count sum
      (float_of_int sum /. float_of_int count);
    Printf.bprintf buf "stall-length histogram (cycles >=): %s\n"
      (String.concat " "
         (List.map (fun (floor, n) -> Printf.sprintf "%d:%d" floor n) buckets))
  | _ -> ());
  Printf.bprintf buf
    "caches: L1 %d hits / %d misses, L2 %d hits / %d misses, %d invalidations, %d c2c\n"
    (c "mem/l1_hits") (c "mem/l1_misses") (c "mem/l2_hits") (c "mem/l2_misses")
    (c "mem/invalidations") (c "mem/c2c_transfers");
  let count_events p =
    List.fold_left
      (fun acc (te : Event.timed) -> if p te.event then acc + 1 else acc)
      0 r.events
  in
  let pushes = count_events (function Event.Scope_push _ -> true | _ -> false) in
  let pops = count_events (function Event.Scope_pop -> true | _ -> false) in
  if pushes > 0 || pops > 0 then
    Printf.bprintf buf "scopes: %d pushes, %d pops%s\n" pushes pops
      (if r.dropped > 0 then " (ring dropped events; counts partial)" else "");
  let gauges =
    List.filter_map
      (fun (name, s) ->
        match s with
        | Metrics.Histogram_v h
          when String.length name > 6 && String.sub name 0 6 = "gauge/" ->
          Some (name, h)
        | _ -> None)
      (Metrics.snapshot r.metrics)
  in
  if gauges <> [] then begin
    Printf.bprintf buf "\nworkload gauges (occupancy transitions; log2-bucket floors):\n";
    Printf.bprintf buf "%-44s %8s %8s %5s %5s %5s %5s\n" "gauge" "samples" "mean" "p50"
      "p90" "p99" "max";
    List.iter
      (fun (name, (h : Metrics.hist_snapshot)) ->
        Printf.bprintf buf "%-44s %8d %8.2f %5d %5d %5d %5d\n" name h.count
          (if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count)
          (hist_percentile h 0.50) (hist_percentile h 0.90) (hist_percentile h 0.99)
          (hist_max_floor h)
      )
      gauges
  end;
  Buffer.contents buf
