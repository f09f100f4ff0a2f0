(* Interval sampling (DESIGN §15).  The sampled engine must keep
   functional behaviour exact — workload validation passes, final
   memory is a legal execution — while estimating cycle-valued
   metrics.  The estimate error is bounded deterministically here on a
   small contended workload (same machine, same program, fixed
   schedule => fixed estimate), and again at bench scale by
   [bench/main.exe sampled] which writes the bound into
   BENCH_engine.json.  Note the sampled run is a DIFFERENT legal
   execution of a contended program (spin iteration counts change
   across the functional legs), so these tests bound errors instead of
   asserting counter identity. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Workload = Fscope_workloads.Workload
module Mpmc = Fscope_workloads.Mpmc

(* short windows so the tiny test workload alternates modes a few
   times instead of finishing inside the first detailed window *)
let schedule = { Config.warmup = 100; detailed = 500; ff_instrs = 1_000 }
let sampled config = Config.v ~base:config ~sampling:(Some schedule) ()
let mpmc () = Mpmc.make ~threads:8 ~per_producer:32 ~scope:`Class ()

(* cycle-estimate error bounds, mirroring the bench gate *)
let cycles_err_bound = 25.0 (* per cent *)
let fence_err_bound = 10.0 (* percentage points *)

let test_sampled_validates () =
  let r = Workload.run_validated (sampled Config.default) (mpmc ()) in
  Alcotest.(check bool) "not timed out" false r.Machine.timed_out;
  Alcotest.(check bool) "spin counters zero under sampling" true
    (r.Machine.spin = { Machine.sleeps = 0; cycles_skipped = 0; wakes = 0 })

let test_error_bounds () =
  let w = mpmc () in
  let detailed = Workload.run_validated Config.default w in
  let s = Workload.run_validated (sampled Config.default) w in
  let cycles_err =
    Float.abs (float_of_int s.Machine.cycles -. float_of_int detailed.Machine.cycles)
    /. float_of_int detailed.Machine.cycles
    *. 100.0
  in
  if cycles_err > cycles_err_bound then
    Alcotest.failf "cycle estimate off by %.1f%% (detailed %d, sampled %d)" cycles_err
      detailed.Machine.cycles s.Machine.cycles;
  let fence_err =
    Float.abs
      (Machine.fence_stall_fraction s -. Machine.fence_stall_fraction detailed)
    *. 100.0
  in
  if fence_err > fence_err_bound then
    Alcotest.failf "fence-share estimate off by %.1fpp" fence_err

(* With sampling off the config routes through the standard engine:
   cycles must be bit-identical to the naive reference loop.  (The
   differential suite enforces this broadly; this pins the dispatch.) *)
let test_sampling_off_identity () =
  let w = mpmc () in
  let a = Workload.run_validated Config.default w in
  let b =
    Workload.run_validated (Config.v ~sampling:None ()) w
  in
  Alcotest.(check int) "sampling None == default engine" a.Machine.cycles
    b.Machine.cycles;
  let r = Machine.run_reference Config.default w.Workload.program in
  Alcotest.(check int) "default engine == reference" r.Machine.cycles
    a.Machine.cycles

let test_checkpoint_sampling_rejected () =
  let w = mpmc () in
  Alcotest.check_raises "sampling + checkpoint rejected"
    (Invalid_argument "Sim_engine.run: sampling and checkpointing are incompatible")
    (fun () ->
      ignore
        (Machine.run
           ~checkpoint:(100, fun _ -> ())
           (sampled Config.default) w.Workload.program))

let test_bad_schedule_rejected () =
  Alcotest.check_raises "non-positive detailed window rejected"
    (Invalid_argument "Config.sampling: detailed window must be positive")
    (fun () ->
      ignore
        (Config.v ~sampling:(Some { Config.warmup = 0; detailed = 0; ff_instrs = 1 }) ()))

let tests =
  [
    Alcotest.test_case "sampled run validates, spin counters zero" `Quick
      test_sampled_validates;
    Alcotest.test_case "cycle and fence-share estimate error bounds" `Quick
      test_error_bounds;
    Alcotest.test_case "sampling off is bit-identical dispatch" `Quick
      test_sampling_off_identity;
    Alcotest.test_case "sampling + checkpointing rejected" `Quick
      test_checkpoint_sampling_rejected;
    Alcotest.test_case "invalid schedule rejected" `Quick test_bad_schedule_rejected;
  ]
