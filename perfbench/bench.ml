(* The simulator's benchmark: one workload per engine mode, timed from
   outside the simulator through its public API.

   An untraced run ([--trace 0]) builds the workload from the seed
   many times (set-up time), then repeats the workload's own engine
   mode until the timed runs add up to [--seconds] and reports medians.
   Between the timed runs it runs, untimed, the accuracy inputs in both
   modes: each detailed run is the reference its sampled estimate is
   scored against.  Every simulation is validated, and every time is
   rescaled to a reference host speed (see the calibration kernel).

   A traced run ([--trace 1]) reports the per-layer ledger.  It drives
   the cores with a naive loop of its own, built from [Hierarchy],
   [Mem_port] and [Core] alone, that records a span around each
   [Core.step_*] call and each memory-port issue.  That loop must be
   bit-identical to [Machine.run_reference], or the result is marked
   incorrect.  The simulator itself is not instrumented.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Core = Fscope_cpu.Core
module Mem_port = Fscope_cpu.Mem_port
module Hierarchy = Fscope_mem.Hierarchy
module Program = Fscope_isa.Program
module Cpi = Fscope_obs.Cpi
module Json = Fscope_util.Json
module Stats = Fscope_util.Stats
module Workload = Fscope_workloads.Workload
module Exp_run = Fscope_experiments.Exp_run

(* ------------------------------------------------------------------ *)
(* Clocks and statistics *)

(* Monotonic nanoseconds; the external is unboxed and [noalloc], so a
   span costs no minor-heap words.  Quantiles interpolate linearly
   between ranks, as Python's [statistics.median] does. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted_of xs) 0.5

(* ------------------------------------------------------------------ *)
(* Host-speed calibration

   On a shared host the simulator's speed drifts by 30% and more over
   minutes as other tenants contend for cores, caches and memory, and
   neither the median nor the fastest of one run's repetitions absorbs
   that.  A fixed kernel that shares no code with the simulator slows
   down with it: random reads over a 16 MB table and short-lived list
   allocation, the two costs that dominate the simulator's profile.
   Each timed call is bracketed by the kernel, and its time is rescaled
   to a host on which the kernel takes [kernel_ref_s].  The table lives
   outside the OCaml heap so it does not count in [peak_heap_mb]. *)

let kernel_ref_s = 0.05
let kernel_iters = 2_500_000

let kernel_table =
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 21) (fun i -> i * 7919)

let kernel () =
  let table = kernel_table in
  let mask = Bigarray.Array1.dim table - 1 in
  let acc = ref 0 and x = ref 1 and keep = ref [] in
  for i = 0 to kernel_iters - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + Bigarray.Array1.unsafe_get table (!x land mask);
    keep := (i, !acc) :: (if i land 63 = 0 then [] else !keep)
  done;
  !acc + List.length !keep

let kernel_s () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  secs_of_ns (now_ns () - t0)

(* [secs] measured between kernel runs taking [k0] and [k1] seconds,
   in seconds of the reference host. *)
let reference_secs secs ~k0 ~k1 = secs *. kernel_ref_s /. ((k0 +. k1) /. 2.)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type mode =
  | Detailed  (** the event-horizon engine with spin fast-forward *)
  | Sampled  (** SMARTS-style interval sampling, [Config.sampling_default] *)

let mode_name = function Detailed -> "detailed" | Sampled -> "sampled"
let partner = function Detailed -> Sampled | Sampled -> Detailed

(* One process, one domain, S-Fence hardware at Table III defaults. *)
let detailed_config = Config.v ~base:(Exp_run.s_config Config.default) ~shard_domains:1 ()
let sampled_config = Exp_run.sampled_config detailed_config
let config_of = function Detailed -> detailed_config | Sampled -> sampled_config

type workload = {
  name : string;
  mode : mode;  (** the engine mode the timed runs use *)
  seeded : bool;  (** does the input depend on the seed *)
  input : int -> string;  (** the input, described for a seed *)
  build : int -> Workload.t;  (** input generation, slang compile, program image *)
}

(* Why these three: see README.md.  pst keeps the ROB nearly full, so
   the issue stage dominates; spin-barrier is the same pipeline mostly
   asleep, so engine changes move it and issue-stage changes barely
   do; barnes is the one workload that runs [run_sampled], and it
   commits the same instructions in both modes, so its cycle error
   isolates the estimator. *)
let workloads =
  [
    {
      name = "pst-scoped";
      mode = Detailed;
      seeded = true;
      input =
        Printf.sprintf
          "pst, 8 cores, 768-node graph of average degree 4 generated from seed %d, \
           class-scoped fences";
      build =
        (fun seed ->
          Fscope_workloads.Pst.make ~threads:8 ~nodes:768 ~degree:4 ~seed ~scope:`Class ());
    };
    {
      name = "spin-barrier";
      mode = Detailed;
      seeded = false;
      input =
        Printf.sprintf
          "spin-barrier, 4 cores, 40 rounds; it has no random input, so seed %d is only \
           recorded";
      build = (fun _seed -> Fscope_workloads.Spin_barrier.make ~threads:4 ~rounds:40 ());
    };
    {
      name = "barnes-sampled";
      mode = Sampled;
      seeded = true;
      input =
        Printf.sprintf
          "barnes, 8 cores, 768 bodies generated from seed %d, set-scoped fences";
      build = (fun seed -> Fscope_workloads.Barnes.make ~threads:8 ~bodies:768 ~seed ());
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics: the names, units and directions BENCHMARK.json declares,
   and which end-to-end metric each per-layer metric should move. *)

type spec = {
  m_name : string;
  unit_ : string;
  better : [ `Higher | `Lower ];
}

let spec m_name unit_ better = { m_name; unit_; better }

let end_to_end =
  [
    spec "instr_per_s" "instr/s" `Higher;
    spec "sim_cycles_per_s" "cycles/s" `Higher;
    spec "words_per_instr" "words/instr" `Lower;
    spec "peak_heap_mb" "MB" `Lower;
    spec "setup_s" "s" `Lower;
    spec "sampled_cycles_err_pct" "%" `Lower;
  ]

let per_layer =
  let phase p =
    [
      spec (p ^ ".s") "s" `Lower;
      spec (p ^ ".calls") "count" `Lower;
      spec (p ^ ".words") "words" `Lower;
    ]
  in
  phase "core.pipeline"
  @ [ spec "core.pipeline.self_s" "s" `Lower ]
  @ phase "core.writes" @ phase "core.reads" @ phase "core.func"
  @ [
      spec "mem.hier.s" "s" `Lower;
      spec "mem.hier.calls" "count" `Lower;
      spec "cache.l1_hits" "count" `Higher;
      spec "cache.l1_misses" "count" `Lower;
      spec "cache.l2_misses" "count" `Lower;
      spec "cache.invalidations" "count" `Lower;
      spec "cache.c2c" "count" `Lower;
      spec "engine.naive_s" "s" `Lower;
      spec "engine.speedup_over_naive" "x" `Higher;
      spec "engine.spin_sleeps" "count" `Higher;
      spec "engine.spin_cycles_skipped" "cycles" `Higher;
      spec "engine.spin_wakes" "count" `Lower;
      spec "sampled.windows" "count" `Higher;
      spec "sampled.measured_cycles" "cycles" `Higher;
      spec "sampled.coverage_pct" "%" `Higher;
      spec "sampled.fence_err_pp" "pp" `Lower;
      spec "gc.minor_collections" "count" `Lower;
      spec "gc.major_collections" "count" `Lower;
      spec "gc.promoted_words" "words" `Lower;
      spec "model.sim_cycles" "cycles" `Lower;
      spec "model.committed" "instr" `Higher;
      spec "model.ipc" "instr/cycle" `Higher;
      spec "model.rob_occupancy" "entries" `Higher;
      spec "model.fence_stall_pct" "%" `Lower;
      spec "trace.overhead_pct" "%" `Lower;
    ]

(* Per-layer metric prefix -> the end-to-end metric it should move, on
   which workload.  The longest matching prefix wins. *)
let predictions =
  [
    ( "core.pipeline",
      "instr_per_s, words_per_instr: most on pst-scoped, less on barnes-sampled (windows), \
       least on spin-barrier" );
    ("core.writes", "instr_per_s, words_per_instr, as core.pipeline");
    ("core.reads", "instr_per_s, words_per_instr, as core.pipeline");
    ("core.func", "instr_per_s on barnes-sampled only");
    ("mem.hier", "instr_per_s: nearly no effect anywhere (<1% of pst time)");
    ("cache", "none: a host-speed change must leave these identical");
    ("engine.naive_s", "sim_cycles_per_s on pst-scoped and spin-barrier");
    ("engine.speedup_over_naive", "sim_cycles_per_s on pst-scoped and spin-barrier");
    ("engine.spin", "sim_cycles_per_s on spin-barrier");
    ("sampled", "sampled_cycles_err_pct and instr_per_s on barnes-sampled");
    ("gc", "words_per_instr, peak_heap_mb, instr_per_s");
    ("model", "none: must not move under a host-speed change");
    ("trace", "none: traced loop against untraced run_reference");
  ]

let prediction name =
  let is_prefix p = String.length p <= String.length name && String.sub name 0 (String.length p) = p in
  List.fold_left
    (fun best (p, text) ->
      match best with
      | Some (bp, _) when String.length bp >= String.length p -> best
      | _ -> if is_prefix p then Some (p, text) else best)
    None predictions
  |> Option.map snd |> Option.value ~default:"-"

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* Failure accounting *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let ledger = { attempted = 0; failed = 0; problems = [] }

let fail what msg =
  ledger.failed <- ledger.failed + 1;
  ledger.problems <- Printf.sprintf "%s: %s" what msg :: ledger.problems

(* Count one simulation run; it fails on an exception, a timeout or a
   validation error.  Returns the result only when it passed. *)
let checked what (w : Workload.t) f =
  ledger.attempted <- ledger.attempted + 1;
  match f () with
  | exception e ->
    fail what (Printexc.to_string e);
    None
  | (r : Machine.result), x ->
    if r.Machine.timed_out then (
      fail what "timed out";
      None)
    else (
      match w.Workload.validate r with
      | Ok () -> Some (r, x)
      | Error e ->
        fail what ("validation: " ^ e);
        None)

(* ------------------------------------------------------------------ *)
(* Simulated outcome: every field the naive loop and the engines must
   agree on bit for bit. *)

type outcome = {
  o_cycles : int;
  o_timed_out : bool;
  o_stats : Core.stats array;
  o_cpi : int array array;
  o_mem : int array;
  o_cache : int array;  (** l1_hits, l1_misses, l2_hits, l2_misses, invalidations, c2c *)
}

let cache_array (s : Hierarchy.stats) =
  [|
    s.Hierarchy.l1_hits;
    s.l1_misses;
    s.l2_hits;
    s.l2_misses;
    s.invalidations;
    s.c2c_transfers;
  |]

let outcome_of_result (r : Machine.result) =
  {
    o_cycles = r.Machine.cycles;
    o_timed_out = r.timed_out;
    o_stats = r.core_stats;
    o_cpi = Array.map Cpi.to_array r.core_cpi;
    o_mem = r.mem;
    o_cache = cache_array r.cache;
  }

(* The first field on which two outcomes differ, if any. *)
let outcome_diff a b =
  if a.o_cycles <> b.o_cycles then Some "cycles"
  else if a.o_timed_out <> b.o_timed_out then Some "timed_out"
  else if a.o_stats <> b.o_stats then Some "per-core stats"
  else if a.o_cpi <> b.o_cpi then Some "CPI leaves"
  else if a.o_mem <> b.o_mem then Some "memory"
  else if a.o_cache <> b.o_cache then Some "cache stats"
  else None

let digest o = Digest.to_hex (Digest.string (Marshal.to_string o [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* The traced naive loop *)

(* Layers a span can belong to. *)
let l_writes = 0
let l_reads = 1
let l_pipeline = 2
let l_hier = 3
let l_func = 4
let layer_names = [| "writes"; "reads"; "pipeline"; "hier"; "func" |]
let layers = Array.length layer_names

(* Per-layer totals plus the first [span_capacity] spans, kept in
   preallocated arrays so recording allocates nothing. *)
type spans = {
  total_ns : int array;
  child_ns : int array;  (** memory-port time nested inside each layer *)
  calls : int array;
  words : Float.Array.t;
  origin : int;
  mutable n : int;
  k_layer : int array;
  k_core : int array;
  k_cycle : int array;
  k_start : int array;
  k_dur : int array;
}

let span_capacity = 1 lsl 16

let new_spans () =
  {
    total_ns = Array.make layers 0;
    child_ns = Array.make layers 0;
    calls = Array.make layers 0;
    words = Float.Array.make layers 0.;
    origin = now_ns ();
    n = 0;
    k_layer = Array.make span_capacity 0;
    k_core = Array.make span_capacity 0;
    k_cycle = Array.make span_capacity 0;
    k_start = Array.make span_capacity 0;
    k_dur = Array.make span_capacity 0;
  }

let record sp ~layer ~core ~cycle ~t0 ~t1 ~w0 ~w1 =
  let d = t1 - t0 in
  sp.total_ns.(layer) <- sp.total_ns.(layer) + d;
  sp.calls.(layer) <- sp.calls.(layer) + 1;
  Float.Array.set sp.words layer (Float.Array.get sp.words layer +. (w1 -. w0));
  let i = sp.n in
  if i < span_capacity then begin
    sp.k_layer.(i) <- layer;
    sp.k_core.(i) <- core;
    sp.k_cycle.(i) <- cycle;
    sp.k_start.(i) <- t0 - sp.origin;
    sp.k_dur.(i) <- d;
    sp.n <- i + 1
  end

let hier_kind = function
  | Mem_port.Read -> Hierarchy.Read
  | Mem_port.Write -> Hierarchy.Write
  | Mem_port.Rmw -> Hierarchy.Rmw

(* A machine wired exactly as the engine wires one (hierarchy memory
   model), with a span around every port issue.  [phase] names the
   layer the issue is nested in; [cycle] the current cycle. *)
let build_machine (config : Config.t) program sp ~phase ~cycle =
  if config.Config.mem_model <> Config.Hierarchy then
    invalid_arg "perfbench: the traced loop models the hierarchy memory only";
  let n = Program.thread_count program in
  let mem = Program.initial_memory program in
  let hierarchy = Hierarchy.create ~cores:n config.Config.mem in
  let issue ~core kind ~addr ~now =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let latency, level =
      Hierarchy.access_classified hierarchy ~core (hier_kind kind) ~addr
    in
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    record sp ~layer:l_hier ~core ~cycle:!cycle ~t0 ~t1 ~w0 ~w1;
    sp.child_ns.(!phase) <- sp.child_ns.(!phase) + (t1 - t0);
    (now + latency, level)
  in
  let port =
    Mem_port.make ~size:(Array.length mem) ~issue
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value -> mem.(addr) <- value)
  in
  let cores =
    Array.init n (fun id ->
        Core.create ~id ~code:program.Program.threads.(id) ~port
          ~scope_config:config.Config.scope ~exec_config:config.Config.exec ())
  in
  (cores, mem, hierarchy)

let step sp ~phase ~layer f core ~cycle =
  phase := layer;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  ignore (f core ~cycle : bool);
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  record sp ~layer ~core:(Core.id core) ~cycle ~t0 ~t1 ~w0 ~w1

(* One cycle at a time, the three phases in the machine's order:
   store/CAS completions, load completions, pipelines. *)
let traced_naive (config : Config.t) program =
  let sp = new_spans () in
  let phase = ref l_pipeline and cycle = ref 0 in
  let cores, mem, hierarchy = build_machine config program sp ~phase ~cycle in
  let n = Array.length cores in
  let all_drained () = Array.for_all Core.drained cores in
  while (not (all_drained ())) && !cycle < config.Config.max_cycles do
    let c = !cycle in
    for i = 0 to n - 1 do
      step sp ~phase ~layer:l_writes Core.step_complete_writes cores.(i) ~cycle:c
    done;
    for i = 0 to n - 1 do
      step sp ~phase ~layer:l_reads Core.step_complete_reads cores.(i) ~cycle:c
    done;
    for i = 0 to n - 1 do
      step sp ~phase ~layer:l_pipeline Core.step_pipeline cores.(i) ~cycle:c
    done;
    incr cycle
  done;
  let outcome =
    {
      o_cycles = !cycle;
      o_timed_out = not (all_drained ());
      o_stats = Array.map Core.stats cores;
      o_cpi = Array.map (fun c -> Cpi.to_array (Core.cpi c)) cores;
      o_mem = mem;
      o_cache = cache_array (Hierarchy.stats hierarchy);
    }
  in
  (outcome, sp)

(* Functional leg: [Core.func_step] round-robin over a fresh machine,
   one instruction per core per turn, until no core can progress.
   Returns the final memory, or [None] if [max_steps] ran out. *)
let func_probe (config : Config.t) program ~max_steps =
  let sp = new_spans () in
  let phase = ref l_func and cycle = ref 0 in
  let cores, mem, _ = build_machine config program sp ~phase ~cycle in
  let n = Array.length cores in
  let live = ref true in
  while !live && sp.calls.(l_func) < max_steps do
    live := false;
    for i = 0 to n - 1 do
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let progressed = Core.func_step cores.(i) in
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      record sp ~layer:l_func ~core:i ~cycle:0 ~t0 ~t1 ~w0 ~w1;
      if progressed then live := true
    done
  done;
  ((if !live then None else Some mem), sp)

(* Chrome trace-event JSON of the recorded spans (the first
   [span_capacity] of the run), viewable in Perfetto. *)
let write_spans path sp =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cycle\":%d}}\n"
      (if i = 0 then "" else ",")
      layer_names.(sp.k_layer.(i))
      sp.k_core.(i)
      (float_of_int sp.k_start.(i) /. 1e3)
      (float_of_int sp.k_dur.(i) /. 1e3)
      sp.k_cycle.(i)
  done;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Shared measurement steps *)

(* Build the workload repeatedly (at least [min_reps] times, and for
   at least [min_s]) and return the last build with the median time,
   in reference-host seconds. *)
let setup wl ~seed ~min_reps ~min_s =
  let k0 = kernel_s () in
  let t_start = now_ns () in
  let times = ref [] and last = ref None and reps = ref 0 in
  while !reps < min_reps || (secs_of_ns (now_ns () - t_start) < min_s && !reps < 1000) do
    let t0 = now_ns () in
    let w = wl.build seed in
    times := secs_of_ns (now_ns () - t0) :: !times;
    last := Some w;
    incr reps
  done;
  let k1 = kernel_s () in
  (Option.get !last, reference_secs (median !times) ~k0 ~k1, !reps)

(* One simulation in [mode], timed and with its minor-heap words. *)
let timed_run mode (w : Workload.t) =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = Machine.run (config_of mode) w.Workload.program in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  (r, (secs_of_ns (t1 - t0), w1 -. w0))

let fence_pct (r : Machine.result) = 100. *. Machine.fence_stall_fraction r

(* The detailed and sampled results of one program, in that order. *)
let by_mode mode ~own ~other = match mode with Detailed -> (own, other) | Sampled -> (other, own)

let cycles_err_pct ~(detailed : Machine.result) ~(sampled : Machine.result) =
  100.
  *. Float.abs (float_of_int (sampled.Machine.cycles - detailed.Machine.cycles))
  /. float_of_int detailed.Machine.cycles

let fence_err_pp ~detailed ~sampled = Float.abs (fence_pct sampled -. fence_pct detailed)

(* ------------------------------------------------------------------ *)
(* Output *)

let print_metric (s : spec) value ~note =
  Printf.printf "  %-28s %16.6g %-11s %s\n" s.m_name value s.unit_ note

let result_json ~correct metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int ledger.attempted);
      ("failed", Json.Int ledger.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((s : spec), v) ->
               (s.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str s.unit_) ]))
             metrics) );
    ]

(* Print the human-readable table, then the result line.  Every
   declared metric must be present, finite and in declared order. *)
let finish ~specs ~notes values =
  let metrics =
    List.map
      (fun (s : spec) ->
        match List.assoc_opt s.m_name values with
        | Some v when Float.is_finite v -> (s, v)
        | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" s.m_name v)
        | None -> failwith ("metric missing: " ^ s.m_name))
      specs
  in
  if List.length values <> List.length specs then failwith "undeclared metric emitted";
  List.iter (fun (s, v) -> print_metric s v ~note:(notes s)) metrics;
  let fail_rate = Stats.ratio ~num:ledger.failed ~den:ledger.attempted in
  Printf.printf "  %-28s %16.6g %-11s (%d failed of %d simulation runs attempted)\n"
    "fail_rate" fail_rate "ratio" ledger.failed ledger.attempted;
  List.iter (fun p -> Printf.printf "  FAILED %s\n" p) (List.rev ledger.problems);
  print_endline (Json.render (result_json ~correct:(ledger.failed = 0) metrics))

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics *)

(* Inputs the accuracy metric is taken over: the timed program's own
   seed and two more derived from it.  The sampled estimate's error
   depends on where the windows fall in the program, which the input
   moves (85-132% across barnes inputs); the mean over three inputs
   steadies the figure. *)
let accuracy_seeds wl seed = if wl.seeded then [ seed; seed + 7919; seed + 15838 ] else [ seed ]

let run_end_to_end wl ~seed ~seconds =
  let w, setup_s, setup_reps = setup wl ~seed ~min_reps:15 ~min_s:0.3 in
  let own = wl.mode and other = partner wl.mode in
  (* Warm-up run: lazy set-up and heap growth happen here, untimed.
     Its words and the process's peak heap after it are deterministic
     for a given binary and seed. *)
  let first = checked (mode_name own ^ " warm-up") w (fun () -> timed_run own w) in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  (* The untimed accuracy runs: every accuracy input in both modes,
     except the timed program's own mode, which the warm-up run
     covers. *)
  let results = Hashtbl.create 8 in
  Option.iter (fun (r, _) -> Hashtbl.replace results (seed, own) r) first;
  let jobs =
    List.concat_map
      (fun s -> if s = seed then [ (s, other) ] else [ (s, own); (s, other) ])
      (accuracy_seeds wl seed)
  in
  let run_job (s, mode) =
    let w' = if s = seed then w else wl.build s in
    match
      checked
        (Printf.sprintf "%s run, seed %d" (mode_name mode) s)
        w'
        (fun () -> (Machine.run (config_of mode) w'.Workload.program, ()))
    with
    | Some (r, ()) -> Hashtbl.replace results (s, mode) r
    | None -> ()
  in
  (* Timed runs until they add up to [seconds].  The untimed runs are
     spread evenly between them, so the timed runs sample the host over
     the whole process lifetime rather than one stretch of it. *)
  let reference = Option.map (fun (r, _) -> outcome_of_result r) first in
  let times = ref [] and raw = ref [] and kernels = ref [] and words = ref [] in
  let runs = ref 0 and timed = ref 0. and stop = ref false in
  let pending = ref jobs and n_jobs = float_of_int (List.length jobs) in
  let k_before = ref (kernel_s ()) in
  while (not !stop) && (!runs < 3 || !timed < seconds) do
    incr runs;
    let result = checked (mode_name own ^ " timed run") w (fun () -> timed_run own w) in
    let k_after = kernel_s () in
    kernels := k_after :: !kernels;
    (match result with
    | None -> stop := true
    | Some (r, (s, wd)) -> (
      raw := s :: !raw;
      times := reference_secs s ~k0:!k_before ~k1:k_after :: !times;
      words := wd :: !words;
      timed := !timed +. s;
      match reference with
      | Some o -> (
        match outcome_diff o (outcome_of_result r) with
        | None -> ()
        | Some f -> fail "timed run" ("differs from the warm-up run in " ^ f))
      | None -> ()));
    k_before := k_after;
    match !pending with
    | job :: rest
      when !timed /. seconds
           >= (n_jobs -. float_of_int (List.length !pending) +. 1.) /. (n_jobs +. 1.) ->
      run_job job;
      pending := rest;
      k_before := kernel_s ()
    | _ -> ()
  done;
  List.iter run_job !pending;
  let pairs =
    List.filter_map
      (fun s ->
        match (Hashtbl.find_opt results (s, Detailed), Hashtbl.find_opt results (s, Sampled)) with
        | Some d, Some smp -> Some (d, smp)
        | _ -> None)
      (accuracy_seeds wl seed)
  in
  match (first, pairs, !times) with
  | Some (own_r, _), (detailed, sampled) :: _, _ :: _
    when List.length pairs = List.length (accuracy_seeds wl seed) ->
    let t = median !times in
    let instrs = float_of_int (Machine.committed_instrs own_r) in
    let sorted = sorted_of !times in
    let errs = List.map (fun (detailed, sampled) -> cycles_err_pct ~detailed ~sampled) pairs in
    let fence_errs = List.map (fun (detailed, sampled) -> fence_err_pp ~detailed ~sampled) pairs in
    Printf.printf "input     %s\n" (wl.input seed);
    Printf.printf "mode      %s engine timed; both modes run untimed on %d input(s) for accuracy\n"
      (mode_name own) (List.length pairs);
    let raw_sorted = sorted_of !raw in
    Printf.printf "runs      %d timed, %.1f s in all: median %.4f s, quartiles %.4f .. %.4f s\n"
      (List.length !raw) !timed (median !raw) (quantile raw_sorted 0.25)
      (quantile raw_sorted 0.75);
    Printf.printf "host      calibration kernel median %.4f s (reference %.3f s)\n"
      (median !kernels) kernel_ref_s;
    Printf.printf "          timed runs in reference-host seconds: median %.4f, quartiles %.4f .. %.4f\n"
      t (quantile sorted 0.25) (quantile sorted 0.75);
    Printf.printf "times     %s\n"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") raw_sorted)));
    Printf.printf "ref-times %s\n"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") sorted)));
    Printf.printf "setup     %d builds, median %.6f s\n" setup_reps setup_s;
    Printf.printf "digest    detailed %s  sampled %s\n"
      (digest (outcome_of_result detailed))
      (digest (outcome_of_result sampled));
    Printf.printf "model     detailed %d cycles, sampled %d cycles (estimate), %d committed\n"
      detailed.Machine.cycles sampled.Machine.cycles (int_of_float instrs);
    Printf.printf "accuracy  seeds %s: cycle error %s %%, fence-share gap %s pp\n"
      (String.concat "," (List.map string_of_int (accuracy_seeds wl seed)))
      (String.concat " " (List.map (Printf.sprintf "%.2f") errs))
      (String.concat " " (List.map (Printf.sprintf "%.3f") fence_errs));
    Printf.printf "  %-28s %16.6g %-11s (mean over the accuracy inputs; per-layer only)\n"
      "sampled_fence_err_pp" (Stats.mean fence_errs) "pp";
    finish ~specs:end_to_end
      ~notes:(fun s ->
        match s.m_name with
        | "sim_cycles_per_s" when own = Sampled ->
          "detailed-reference cycles per host second of the sampled run"
        | "sampled_cycles_err_pct" -> "mean over the accuracy inputs"
        | _ -> "")
      [
        ("instr_per_s", instrs /. t);
        ("sim_cycles_per_s", float_of_int detailed.Machine.cycles /. t);
        ("words_per_instr", median !words /. instrs);
        ("peak_heap_mb", peak_heap_mb);
        ("setup_s", setup_s);
        ("sampled_cycles_err_pct", Stats.mean errs);
      ]
  | _ ->
    List.iter prerr_endline (List.rev ledger.problems);
    failwith "no valid result to measure"

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer ledger *)

let run_per_layer wl ~seed ~seconds ~spans_path =
  let w, _, _ = setup wl ~seed ~min_reps:3 ~min_s:0. in
  let program = w.Workload.program in
  let own = wl.mode in
  let gc0 = Gc.quick_stat () in
  let own_r = checked (mode_name own ^ " engine run") w (fun () -> timed_run own w) in
  let gc1 = Gc.quick_stat () in
  let other_r =
    checked (mode_name (partner own) ^ " engine run") w (fun () -> timed_run (partner own) w)
  in
  (* Alternate the traced loop with run_reference until [seconds] have
     passed; every pair must be bit-identical. *)
  let pairs = ref [] in
  let t_start = now_ns () in
  while !pairs = [] || secs_of_ns (now_ns () - t_start) < seconds do
    ledger.attempted <- ledger.attempted + 1;
    let t0 = now_ns () in
    let replica, sp = traced_naive detailed_config program in
    let traced_s = secs_of_ns (now_ns () - t0) in
    let reference =
      checked "run_reference" w (fun () ->
          let t0 = now_ns () in
          let r = Machine.run_reference detailed_config program in
          (r, secs_of_ns (now_ns () - t0)))
    in
    match reference with
    | Some (r, ref_s) ->
      (match outcome_diff replica (outcome_of_result r) with
      | None -> ()
      | Some f -> fail "traced loop" ("differs from run_reference in " ^ f));
      pairs := (replica, sp, traced_s, r, ref_s) :: !pairs
    | None -> if !pairs = [] then failwith "run_reference failed"
  done;
  let probe_max = 200_000_000 in
  ledger.attempted <- ledger.attempted + 1;
  let probe_mem, func_sp = func_probe detailed_config program ~max_steps:probe_max in
  (match (probe_mem, own_r) with
  | None, _ -> fail "functional probe" "did not finish"
  | Some mem, Some (r, _) -> (
    match w.Workload.validate { r with Machine.mem } with
    | Ok () -> ()
    | Error e -> fail "functional probe" ("validation: " ^ e))
  | Some _, None -> ());
  match (own_r, other_r, !pairs) with
  | Some (own_r, (own_s, _)), Some (other_r, (other_s, _)), (replica, _, _, naive_r, _) :: _ ->
    let detailed, sampled = by_mode own ~own:own_r ~other:other_r in
    let engine_s = match own with Detailed -> own_s | Sampled -> other_s in
    (match outcome_diff (outcome_of_result detailed) (outcome_of_result naive_r) with
    | None -> ()
    | Some f -> fail "detailed engine" ("differs from run_reference in " ^ f));
    let last_sp = match !pairs with (_, sp, _, _, _) :: _ -> sp | [] -> assert false in
    if spans_path <> "" then write_spans spans_path last_sp;
    let med f = median (List.map f !pairs) in
    let layer_s l = med (fun (_, sp, _, _, _) -> secs_of_ns sp.total_ns.(l)) in
    let self_s l =
      med (fun (_, sp, _, _, _) -> secs_of_ns (sp.total_ns.(l) - sp.child_ns.(l)))
    in
    let calls sp l = float_of_int sp.calls.(l) in
    let words sp l = Float.Array.get sp.words l in
    let naive_s = med (fun (_, _, _, _, s) -> s) in
    let traced_s = med (fun (_, _, s, _, _) -> s) in
    let windows = sampled.Machine.sample_windows in
    let measured = List.fold_left (fun acc (a, b) -> acc + (b - a + 1)) 0 windows in
    let cache = replica.o_cache in
    let model_cycles = float_of_int own_r.Machine.cycles in
    Printf.printf "input     %s\n" (wl.input seed);
    Printf.printf "loop      traced naive loop checked against run_reference on %d pair(s); %d spans kept%s\n"
      (List.length !pairs) last_sp.n
      (if spans_path = "" then "" else " in " ^ spans_path);
    Printf.printf "digest    detailed %s  sampled %s\n"
      (digest (outcome_of_result detailed))
      (digest (outcome_of_result sampled));
    Printf.printf "  %-28s %16s %-11s %s\n" "metric" "value" "unit" "should move";
    finish ~specs:per_layer
      ~notes:(fun s -> prediction s.m_name)
      [
        ("core.pipeline.s", layer_s l_pipeline);
        ("core.pipeline.calls", calls last_sp l_pipeline);
        ("core.pipeline.words", words last_sp l_pipeline);
        ("core.pipeline.self_s", self_s l_pipeline);
        ("core.writes.s", layer_s l_writes);
        ("core.writes.calls", calls last_sp l_writes);
        ("core.writes.words", words last_sp l_writes);
        ("core.reads.s", layer_s l_reads);
        ("core.reads.calls", calls last_sp l_reads);
        ("core.reads.words", words last_sp l_reads);
        ("core.func.s", secs_of_ns func_sp.total_ns.(l_func));
        ("core.func.calls", calls func_sp l_func);
        ("core.func.words", words func_sp l_func);
        ("mem.hier.s", layer_s l_hier);
        ("mem.hier.calls", calls last_sp l_hier);
        ("cache.l1_hits", float_of_int cache.(0));
        ("cache.l1_misses", float_of_int cache.(1));
        ("cache.l2_misses", float_of_int cache.(3));
        ("cache.invalidations", float_of_int cache.(4));
        ("cache.c2c", float_of_int cache.(5));
        ("engine.naive_s", naive_s);
        ("engine.speedup_over_naive", naive_s /. engine_s);
        ("engine.spin_sleeps", float_of_int detailed.Machine.spin.Machine.sleeps);
        ("engine.spin_cycles_skipped", float_of_int detailed.Machine.spin.Machine.cycles_skipped);
        ("engine.spin_wakes", float_of_int detailed.Machine.spin.Machine.wakes);
        ("sampled.windows", float_of_int (List.length windows));
        ("sampled.measured_cycles", float_of_int measured);
        ( "sampled.coverage_pct",
          100. *. float_of_int measured /. float_of_int sampled.Machine.cycles );
        ("sampled.fence_err_pp", fence_err_pp ~detailed ~sampled);
        ( "gc.minor_collections",
          float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
        ("model.sim_cycles", model_cycles);
        ("model.committed", float_of_int (Machine.committed_instrs own_r));
        ("model.ipc", float_of_int (Machine.committed_instrs own_r) /. model_cycles);
        ("model.rob_occupancy", Machine.avg_rob_occupancy own_r);
        ("model.fence_stall_pct", fence_pct own_r);
        ("trace.overhead_pct", 100. *. (traced_s -. naive_s) /. naive_s);
      ]
  | _ ->
    List.iter prerr_endline (List.rev ledger.problems);
    failwith "no valid result to measure"

(* ------------------------------------------------------------------ *)
(* Self-tests *)

let better_name = function `Higher -> "higher" | `Lower -> "lower"

let selftest () =
  let errors = ref [] in
  let check ok what = if not ok then errors := what :: !errors in
  (* Metric names and counts. *)
  let names = List.map (fun s -> s.m_name) (end_to_end @ per_layer) in
  List.iter (fun n -> check (valid_name n) ("invalid metric name " ^ n)) names;
  check
    (List.length (List.sort_uniq compare names) = List.length names)
    "duplicate metric name";
  check (List.length end_to_end <= 16) "more than 16 end-to-end metrics";
  check (List.length per_layer <= 128) "more than 128 per-layer metrics";
  check (List.exists (fun s -> s.m_name = "setup_s") end_to_end) "setup_s missing";
  (* BENCHMARK.json declares exactly what the program emits. *)
  (match Json.of_file "BENCHMARK.json" with
  | exception e -> check false ("BENCHMARK.json: " ^ Printexc.to_string e)
  | j ->
    let declared key =
      List.map
        (fun m ->
          ( Json.str_exn (Json.get "name" m),
            Json.str_exn (Json.get "unit" m),
            Json.str_exn (Json.get "better" m) ))
        (Json.list_exn (Json.get key j))
    in
    let emitted specs = List.map (fun s -> (s.m_name, s.unit_, better_name s.better)) specs in
    check (declared "end_to_end" = emitted end_to_end) "BENCHMARK.json end_to_end differs";
    check (declared "per_layer" = emitted per_layer) "BENCHMARK.json per_layer differs";
    check
      (List.map (fun m -> Json.str_exn (Json.get "name" m)) (Json.list_exn (Json.get "workloads" j))
      = List.map (fun wl -> wl.name) workloads)
      "BENCHMARK.json workloads differ");
  (* A span allocates nothing of its own. *)
  let sp = new_spans () and phase = ref 0 in
  let noop _core ~cycle = cycle < 0 in
  (* A small pst: unlike a tiny barrier, its outcome depends on the
     order of the three step phases. *)
  let w = Fscope_workloads.Pst.make ~threads:4 ~nodes:64 ~seed:1 ~scope:`Class () in
  let cores, _, _ = build_machine detailed_config w.Workload.program sp ~phase ~cycle:(ref 0) in
  for c = 0 to 999 do
    step sp ~phase ~layer:l_writes noop cores.(0) ~cycle:c
  done;
  check (Float.Array.get sp.words l_writes = 0.) "a span allocates minor-heap words";
  (* The traced loop matches run_reference, and each perturbation of
     its outcome is rejected. *)
  let replica, _ = traced_naive detailed_config w.Workload.program in
  let reference = outcome_of_result (Machine.run_reference detailed_config w.Workload.program) in
  check (outcome_diff replica reference = None) "traced loop differs from run_reference";
  let bump a i = Array.mapi (fun j x -> if j = i then x + 1 else x) a in
  let perturbed =
    [
      ("cycles", { replica with o_cycles = replica.o_cycles + 1 });
      ("timed_out", { replica with o_timed_out = not replica.o_timed_out });
      ( "stats",
        {
          replica with
          o_stats =
            Array.mapi
              (fun i (s : Core.stats) ->
                if i = 0 then { s with Core.committed = s.Core.committed + 1 } else s)
              replica.o_stats;
        } );
      ( "cpi",
        { replica with o_cpi = Array.mapi (fun i a -> if i = 0 then bump a 0 else a) replica.o_cpi }
      );
      ("mem", { replica with o_mem = bump replica.o_mem (Array.length replica.o_mem - 1) });
      ("cache", { replica with o_cache = bump replica.o_cache 0 });
    ]
  in
  List.iter
    (fun (what, o) -> check (outcome_diff o reference <> None) ("perturbed " ^ what ^ " accepted"))
    perturbed;
  match !errors with
  | [] -> print_endline "selftest ok"
  | es ->
    List.iter (fun e -> prerr_endline ("selftest: " ^ e)) (List.rev es);
    exit 1

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans = ref "" and self = ref false in
  let spec_list =
    [
      ("--workload", Arg.Set_string workload, "NAME pst-scoped | spin-barrier | barnes-sampled");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans (Chrome JSON)");
      ("--selftest", Arg.Set self, " check the benchmark itself");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec_list (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then selftest ()
  else
    match List.find_opt (fun wl -> wl.name = !workload) workloads with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun wl -> wl.name) workloads));
      exit 2
    | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    | Some _ when !seconds < 1 ->
      prerr_endline "perfbench: --seconds must be at least 1";
      exit 2
    | Some wl ->
      Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n" wl.name !seed
        !seconds !trace;
      let seconds = float_of_int !seconds in
      if !trace = 0 then run_end_to_end wl ~seed:!seed ~seconds
      else run_per_layer wl ~seed:!seed ~seconds ~spans_path:!spans
