(* Engine-level end-to-end properties:

   - the domain-parallel experiment runner must not change any
     rendered artefact: fig12/fig13 tables are byte-identical whether
     the points run sequentially or fanned across 4 domains;
   - a traced fast-forward run must match a traced reference run
     event-for-event and metric-for-metric, not just in its result
     record (the engine skips frozen spans, so this pins down that no
     observable is emitted or timed differently across a jump). *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Table = Fscope_util.Table
module Obs = Fscope_obs
module Registry = Fscope_workloads.Registry
module E = Fscope_experiments

let with_jobs n f =
  E.Exp_run.set_jobs n;
  Fun.protect ~finally:(fun () -> E.Exp_run.set_jobs 1) f

let render_fig12 () = Table.render (E.Fig12.table (E.Fig12.run ~quick:true ()))
let render_fig13 () = Table.render (E.Fig13.table (E.Fig13.run ~quick:true ()))

let test_jobs_identical name render () =
  let seq = with_jobs 1 render in
  let par = with_jobs 4 render in
  Alcotest.(check string) (name ^ ": --jobs 1 and --jobs 4 render identically") seq par

let traced_run config program runner =
  let cores = Fscope_isa.Program.thread_count program in
  let trace = Obs.Trace.create ~ring_capacity:65536 ~cores () in
  let result = runner ~obs:trace config program in
  match result.Machine.obs with
  | Some report -> (result, report)
  | None -> Alcotest.fail "traced run produced no report"

let test_traced_identical () =
  let w = E.Exp_run.workload ~params:{ Registry.default_params with rounds = Some 4 } "wsq" in
  let program = w.Fscope_workloads.Workload.program in
  let config = E.Exp_run.s_config Config.default in
  let engine_r, engine_rep =
    traced_run config program (fun ~obs c p -> Machine.run ~obs c p)
  in
  let ref_r, ref_rep =
    traced_run config program (fun ~obs c p -> Machine.run_reference ~obs c p)
  in
  Alcotest.(check int) "cycles" ref_r.Machine.cycles engine_r.Machine.cycles;
  Alcotest.(check int) "events"
    (Obs.Report.events_count ref_rep)
    (Obs.Report.events_count engine_rep);
  Alcotest.(check string) "event stream (jsonl)" (Obs.Sink.jsonl ref_rep)
    (Obs.Sink.jsonl engine_rep);
  Alcotest.(check string) "metrics summary" (Obs.Sink.summary ref_rep)
    (Obs.Sink.summary engine_rep)

(* Spin fast-forward regression: a two-core flag handshake.  Core 0
   counts down a few thousand iterations (a counting loop whose ARF
   changes every boundary — the stability probe must refuse to arm it),
   then publishes a value and raises a flag; core 1 spins on the flag.
   The engine must actually put the spinner into spin-sleep and replay
   the skipped iterations in closed form (the exposed
   [spin.cycles_skipped] engine stat is positive), while every other
   result field stays bit-identical to the naive reference loop, with
   the optimisation on or off. *)
let test_spin_fastforward () =
  let open Fscope_isa in
  let r n = Reg.r n in
  let worker =
    [|
      Instr.Li (r 1, 4000);
      Instr.Alu (Instr.Sub, r 1, r 1, Instr.Imm 1);
      Instr.Branch { cond = Instr.Nez; src = r 1; target = 1 };
      Instr.Li (r 2, 42);
      Instr.Store { src = r 2; base = Reg.zero; off = 1; flagged = false };
      Instr.Li (r 3, 1);
      Instr.Store { src = r 3; base = Reg.zero; off = 0; flagged = false };
      Instr.Halt;
    |]
  in
  let spinner =
    [|
      Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
      Instr.Branch { cond = Instr.Eqz; src = r 1; target = 0 };
      Instr.Load { dst = r 2; base = Reg.zero; off = 1; flagged = false };
      Instr.Store { src = r 2; base = Reg.zero; off = 2; flagged = false };
      Instr.Halt;
    |]
  in
  let program = Program.make ~threads:[ worker; spinner ] ~mem_words:8 () in
  let strip (res : Machine.result) =
    {
      res with
      Machine.spin = { Machine.sleeps = 0; cycles_skipped = 0; wakes = 0 };
    }
  in
  let config = Config.default in
  let ff_on = Machine.run config program in
  let ff_off = Machine.run (Config.with_spin_fastforward false config) program in
  let reference = Machine.run_reference config program in
  Alcotest.(check bool) "FF on == reference (up to spin counters)" true
    (strip ff_on = strip reference);
  Alcotest.(check bool) "FF off == reference" true (strip ff_off = strip reference);
  Alcotest.(check int) "handshake value arrived" 42 ff_on.Machine.mem.(2);
  Alcotest.(check bool) "spinner was put to sleep" true (ff_on.Machine.spin.Machine.sleeps > 0);
  Alcotest.(check bool) "engine stats expose skipped cycles" true
    (ff_on.Machine.spin.Machine.cycles_skipped > 0);
  Alcotest.(check int) "FF off skipped nothing" 0 ff_off.Machine.spin.Machine.cycles_skipped

(* Allocation is exact for a fixed binary and input, so it is gated
   tightly: a small pst run on the S-Fence machine must stay under a
   words-per-committed-instruction bound set 10% above its measured
   value (103.5 words with OCaml 5.1.1; the same run allocated 528
   before the issue and completion stages stopped allocating per
   cycle).  The run keeps the ROB nearly full, so per-cycle allocation
   in those stages shows up here first. *)
let words_per_instr_bound = 114.0

let test_words_per_instr () =
  let w =
    Fscope_workloads.Pst.make ~threads:4 ~nodes:128 ~degree:4 ~seed:1 ~scope:`Class ()
  in
  let config = Config.scoped Config.default in
  let program = w.Fscope_workloads.Workload.program in
  let w0 = Gc.minor_words () in
  let result = Machine.run config program in
  let words = Gc.minor_words () -. w0 in
  let committed =
    Array.fold_left (fun acc (s : Fscope_cpu.Core.stats) -> acc + s.committed) 0
      result.Machine.core_stats
  in
  let per_instr = words /. float_of_int committed in
  if per_instr > words_per_instr_bound then
    Alcotest.failf "%.2f words per committed instruction, bound %.2f" per_instr
      words_per_instr_bound

let tests =
  [
    Alcotest.test_case "fig12 parallel fan-out is deterministic" `Quick
      (test_jobs_identical "fig12" render_fig12);
    Alcotest.test_case "fig13 parallel fan-out is deterministic" `Quick
      (test_jobs_identical "fig13" render_fig13);
    Alcotest.test_case "traced engine run matches traced reference" `Quick
      test_traced_identical;
    Alcotest.test_case "pst words per instruction under bound" `Quick
      test_words_per_instr;
    Alcotest.test_case "spin fast-forward sleeps and stays bit-identical" `Quick
      test_spin_fastforward;
  ]
