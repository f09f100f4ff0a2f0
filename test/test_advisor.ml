(* Advisor tests: the predicted per-workload speedup ordering must
   match the paper's measured ordering across the eight paper
   workloads, and the ranked advice must be bit-identical for any
   --jobs setting.

   The ordering check runs the quick bench sizes under a 100k-cycle
   cap (the committed BENCH_profile baseline's shape) with spin
   fast-forward off — the optimisation is timing-neutral, so
   predictions are unchanged, but each profile then costs one traced
   run instead of two.  harris is profiled at contention level 1, its
   calibrated peak (EXPERIMENTS.md) and the level its paper number
   quotes. *)

module E = Fscope_experiments
module Obs = Fscope_obs
module W = Fscope_workloads
module Registry = W.Registry
module Config = Fscope_machine.Config

let base_config = Config.v ~spin_fastforward:false ~max_cycles:100_000 ()

let quick ?level ?attempts ?size name =
  let p = Registry.default_params in
  E.Exp_run.workload
    ~params:
      {
        p with
        size;
        attempts = Option.value attempts ~default:p.Registry.attempts;
        level =
          (match level with
          | Some l -> W.Privwork.fig12_levels.(l - 1)
          | None -> p.Registry.level);
      }
    name

(* The eight paper workloads at the quick bench sizes. *)
let paper_apps () =
  [
    quick "dekker" ~attempts:10;
    quick "wsq";
    quick "msn" ~size:8;
    quick "harris" ~size:4 ~level:1;
    quick "pst" ~size:256;
    quick "ptc" ~size:128;
    quick "barnes" ~size:64;
    quick "radiosity" ~size:64;
  ]

let predict w =
  let t_input, s_input = E.Profiling.advise_inputs base_config w in
  Obs.Advisor.predicted_speedup ~scoped:s_input t_input

let test_paper_ordering () =
  let predicted =
    List.map (fun w -> (w.W.Workload.name, predict w)) (paper_apps ())
  in
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s prediction sane (%.3f)" name s)
        true
        (s >= 1.0 && s < 3.0))
    predicted;
  let violations =
    Obs.Advisor.ordering_violations ~min_gap:0.08 predicted Obs.Advisor.paper_speedups
  in
  Alcotest.(check (list (pair string string)))
    "predicted ordering matches the paper's measured ordering" [] violations

let test_paper_speedups_shape () =
  let s = Obs.Advisor.paper_speedups in
  Alcotest.(check int) "eight paper workloads" 8 (List.length s);
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "calibrated speedups are descending" true (descending s);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s resolvable in the registry" name)
        true
        (Registry.all |> List.exists (fun (sp : Registry.spec) -> sp.name = name)))
    s

(* The ranked advice — rendered to its canonical JSON — must be
   byte-identical across job fan-out. *)
let test_determinism_across_jobs () =
  let advise ~jobs =
    let saved = E.Exp_run.jobs () in
    E.Exp_run.set_jobs jobs;
    let t_input, s_input =
      E.Profiling.advise_inputs base_config (quick "dekker" ~attempts:10)
    in
    E.Exp_run.set_jobs saved;
    Obs.Advisor.json (Obs.Advisor.analyze ~scoped:s_input t_input)
  in
  Alcotest.(check string) "advice identical at --jobs 4" (advise ~jobs:1) (advise ~jobs:4)

let test_ordering_violations_rule () =
  let a = [ ("x", 1.30); ("y", 1.20); ("z", 1.00) ] in
  (* agreement *)
  Alcotest.(check (list (pair string string)))
    "identical lists agree" []
    (Obs.Advisor.ordering_violations ~min_gap:0.05 a a);
  (* disagreement past the gap on both sides *)
  let b = [ ("z", 1.30); ("y", 1.20); ("x", 1.00) ] in
  Alcotest.(check bool)
    "clear inversion is reported" true
    (Obs.Advisor.ordering_violations ~min_gap:0.05 a b <> []);
  (* near-tie on one side is not a violation *)
  let c = [ ("y", 1.23); ("x", 1.20); ("z", 1.00) ] in
  Alcotest.(check (list (pair string string)))
    "near-tie counts as agreement" []
    (Obs.Advisor.ordering_violations ~min_gap:0.05 a c)

let test_analyze_requires_metrics () =
  let w = quick "dekker" ~attempts:10 in
  let input = E.Profiling.profile base_config w in
  let untraced = { input with Obs.Profile.metrics = None } in
  Alcotest.check_raises "untraced input rejected"
    (Failure "advisor: needs a traced profile (no metrics registry)")
    (fun () -> ignore (Obs.Advisor.analyze untraced))

let tests =
  [
    Alcotest.test_case "paper speedup table shape" `Quick test_paper_speedups_shape;
    Alcotest.test_case "ordering-violations rule" `Quick test_ordering_violations_rule;
    Alcotest.test_case "analyze requires metrics" `Quick test_analyze_requires_metrics;
    Alcotest.test_case "deterministic across jobs" `Slow test_determinism_across_jobs;
    Alcotest.test_case "paper ordering reproduced" `Slow test_paper_ordering;
  ]
