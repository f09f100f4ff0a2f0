(* Differential testing: random single-threaded slang programs are run
   through (a) the reference interpreter on the source AST and (b) the
   full pipeline — typecheck, inline, codegen, cycle-level simulation —
   under four machine configurations.  The final memories must agree
   exactly.  This cross-checks the compiler and the processor's
   functional behaviour (renaming, forwarding, disambiguation,
   misprediction recovery, CAS, fence handling) in one property. *)

module Ast = Fscope_slang.Ast
module Compile = Fscope_slang.Compile
module Interp = Fscope_slang.Interp
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Rng = Fscope_util.Rng

(* ------------------------------------------------------------------ *)
(* Random program generator                                            *)
(* ------------------------------------------------------------------ *)

type genv = {
  rng : Rng.t;
  mutable locals : string list;  (** in scope, innermost first *)
  mutable fresh : int;
  in_method : bool;  (** inside class K: "self" is available *)
  callable : (string * bool) list;  (** methods this context may call: (name, returns) *)
}

let arrays = [ ("arr1", 16); ("arr2", 32) ]
let scalars = [ "ga"; "gb" ]
let field_arrays = [ ("buf", 16) ]
let field_scalars = [ "f" ]

let fresh_name env prefix =
  env.fresh <- env.fresh + 1;
  Printf.sprintf "%s%d" prefix env.fresh

let pick env xs = List.nth xs (Rng.int env.rng (List.length xs))

let rec gen_expr env depth =
  let leaf () =
    match Rng.int env.rng (if env.locals = [] then 2 else 4) with
    | 0 -> Ast.Int (Rng.int_in env.rng (-20) 20)
    | 1 -> Ast.Read (gen_lvalue env (depth + 1))
    | 2 -> Ast.Local (pick env env.locals)
    | _ -> Ast.Local (pick env env.locals)
  in
  if depth >= 3 then leaf ()
  else
    match Rng.int env.rng 6 with
    | 0 | 1 -> leaf ()
    | 2 | 3 ->
      let op =
        pick env
          [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Rem; Ast.Band; Ast.Bor; Ast.Bxor;
            Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ]
      in
      Ast.Binop (op, gen_expr env (depth + 1), gen_expr env (depth + 1))
    | 4 -> Ast.Not (gen_expr env (depth + 1))
    | _ -> Ast.Read (gen_lvalue env (depth + 1))

and gen_lvalue env depth =
  (* Array indices are masked with the (power-of-two) size so they are
     always in bounds in both executions. *)
  let masked size = Ast.Binop (Ast.Band, gen_expr env (depth + 1), Ast.Int (size - 1)) in
  let choices = if env.in_method then 4 else 2 in
  match Rng.int env.rng choices with
  | 0 -> Ast.Global (pick env scalars)
  | 1 ->
    let name, size = pick env arrays in
    Ast.Elem (name, masked size)
  | 2 -> Ast.Field ("self", pick env field_scalars)
  | _ ->
    let name, size = pick env field_arrays in
    Ast.Field_elem ("self", name, masked size)

let gen_fence env =
  let flavor =
    pick env [ Ast.FF_full; Ast.FF_store_store; Ast.FF_load_load; Ast.FF_store_load ]
  in
  match Rng.int env.rng 3 with
  | 0 -> Ast.Fence (Ast.F_full, flavor)
  | 1 when env.in_method -> Ast.Fence (Ast.F_class, flavor)
  | _ -> Ast.Fence (Ast.F_set [ pick env scalars; fst (pick env arrays) ], flavor)

let rec gen_block env ~depth ~len =
  let saved = env.locals in
  let stmts = List.concat (List.init len (fun _ -> gen_stmt env ~depth)) in
  env.locals <- saved;
  stmts

and gen_stmt env ~depth =
  match Rng.int env.rng 12 with
  | 0 | 1 ->
    let name = fresh_name env "v" in
    let e = gen_expr env 0 in
    env.locals <- name :: env.locals;
    [ Ast.Let (name, e) ]
  | 2 when env.locals <> [] -> [ Ast.Assign (pick env env.locals, gen_expr env 0) ]
  | 3 | 4 -> [ Ast.Store (gen_lvalue env 0, gen_expr env 0) ]
  | 5 when depth < 2 ->
    [ Ast.If (gen_expr env 0, gen_block env ~depth:(depth + 1) ~len:2,
              if Rng.bool env.rng then gen_block env ~depth:(depth + 1) ~len:2 else []) ]
  | 6 when depth < 2 ->
    (* A bounded counting loop.  The counter is deliberately NOT added
       to [env.locals]: generated statements in the body must not be
       able to reassign it, or the loop could diverge. *)
    let c = fresh_name env "c" in
    let n = Rng.int_in env.rng 0 4 in
    let body = gen_block env ~depth:(depth + 1) ~len:2 in
    [
      Ast.Let (c, Ast.Int n);
      Ast.While
        ( Ast.Binop (Ast.Gt, Ast.Local c, Ast.Int 0),
          body @ [ Ast.Assign (c, Ast.Binop (Ast.Sub, Ast.Local c, Ast.Int 1)) ] );
    ]
  | 7 -> [ gen_fence env ]
  | 8 ->
    let dst = fresh_name env "ok" in
    env.locals <- dst :: env.locals;
    [
      Ast.Let (dst, Ast.Int 0);
      Ast.Cas { dst; lv = gen_lvalue env 0; expected = gen_expr env 1; desired = gen_expr env 1 };
    ]
  | 9 when env.callable <> [] ->
    let name, returns = pick env env.callable in
    let args = [ gen_expr env 0 ] in
    if returns then begin
      let dst = fresh_name env "r" in
      env.locals <- dst :: env.locals;
      [ Ast.Let (dst, Ast.Int 0); Ast.Call_assign (dst, { instance = Some "k"; meth = name; args }) ]
    end
    else [ Ast.Call_stmt { instance = Some "k"; meth = name; args } ]
  | _ -> [ Ast.Store (gen_lvalue env 0, gen_expr env 0) ]

let gen_method rng ~name ~callable ~returns =
  let env = { rng; locals = [ "p" ]; fresh = 0; in_method = true; callable } in
  let body = gen_block env ~depth:0 ~len:(Rng.int_in rng 2 5) in
  let body = if returns then body @ [ Ast.Return (Some (gen_expr env 0)) ] else body in
  { Ast.mname = name; params = [ "p" ]; returns; body }

(* Multicore variant: [threads] copies of independently generated
   bodies, each touching only its own globals ("t<i>_ga", ...), so the
   sequential interpretation and any parallel interleaving must agree
   on the final memory. *)
let gen_disjoint_program seed ~threads =
  let rng = Rng.create seed in
  let per_thread t =
    let prefix n = Printf.sprintf "t%d_%s" t n in
    let rename_lv = function
      | Ast.Global n -> Ast.Global (prefix n)
      | Ast.Elem (n, e) -> Ast.Elem (prefix n, e)
      | (Ast.Field _ | Ast.Field_elem _) as lv -> lv
    in
    let rec rename_expr = function
      | (Ast.Int _ | Ast.Tid | Ast.Local _) as e -> e
      | Ast.Read lv -> Ast.Read (rename_deep lv)
      | Ast.Binop (op, a, b) -> Ast.Binop (op, rename_expr a, rename_expr b)
      | Ast.Not e -> Ast.Not (rename_expr e)
    and rename_deep lv =
      match rename_lv lv with
      | Ast.Elem (n, e) -> Ast.Elem (n, rename_expr e)
      | Ast.Field_elem (i, f, e) -> Ast.Field_elem (i, f, rename_expr e)
      | (Ast.Global _ | Ast.Field _) as lv -> lv
    in
    let rec rename_stmt = function
      | Ast.Let (n, e) -> Ast.Let (n, rename_expr e)
      | Ast.Assign (n, e) -> Ast.Assign (n, rename_expr e)
      | Ast.Store (lv, e) -> Ast.Store (rename_deep lv, rename_expr e)
      | Ast.If (c, a, b) -> Ast.If (rename_expr c, List.map rename_stmt a, List.map rename_stmt b)
      | Ast.While (c, b) -> Ast.While (rename_expr c, List.map rename_stmt b)
      | Ast.Fence (Ast.F_set vars, fl) -> Ast.Fence (Ast.F_set (List.map prefix vars), fl)
      | Ast.Fence (spec, fl) -> Ast.Fence (spec, fl)
      | Ast.Cas { dst; lv; expected; desired } ->
        Ast.Cas { dst; lv = rename_deep lv;
                  expected = rename_expr expected; desired = rename_expr desired }
      | (Ast.Call_stmt _ | Ast.Call_assign _ | Ast.Return _ | Ast.Inlined _) as s -> s
    in
    let env =
      { rng = Rng.split rng; locals = []; fresh = 1000 * (t + 1); in_method = false;
        callable = [] (* no class: the instance would be shared *) }
    in
    List.map rename_stmt (gen_block env ~depth:0 ~len:(Rng.int_in rng 4 8))
  in
  let bodies = List.init threads per_thread in
  {
    Ast.classes = [];
    instances = [];
    globals =
      List.concat_map
        (fun t ->
          let prefix n = Printf.sprintf "t%d_%s" t n in
          List.map (fun s -> Ast.G_scalar (prefix s, Rng.int rng 100)) scalars
          @ List.map (fun (a, size) -> Ast.G_array (prefix a, size, None)) arrays)
        (List.init threads Fun.id);
    threads = bodies;
  }

let gen_program seed =
  let rng = Rng.create seed in
  let m0 = gen_method (Rng.split rng) ~name:"m0" ~callable:[] ~returns:(Rng.bool rng) in
  let m1 =
    gen_method (Rng.split rng) ~name:"m1"
      ~callable:[ ("m0", m0.Ast.returns) ]
      ~returns:(Rng.bool rng)
  in
  let cls =
    {
      Ast.cname = "K";
      scalars = List.map (fun f -> (f, Rng.int rng 50)) field_scalars;
      arrays = List.map (fun (f, size) -> (f, size, None)) field_arrays;
      methods = [ m0; m1 ];
    }
  in
  let env =
    {
      rng;
      locals = [];
      fresh = 1000;
      in_method = false;
      callable = [ ("m0", m0.Ast.returns); ("m1", m1.Ast.returns) ];
    }
  in
  let thread = gen_block env ~depth:0 ~len:(Rng.int_in rng 4 10) in
  {
    Ast.classes = [ cls ];
    instances = [ { Ast.iname = "k"; cls = "K" } ];
    globals =
      List.map (fun s -> Ast.G_scalar (s, Rng.int rng 100)) scalars
      @ List.map (fun (a, size) -> Ast.G_array (a, size, None)) arrays;
    threads = [ thread ];
  }

(* ------------------------------------------------------------------ *)

let configs =
  [
    ("scoped", Config.scoped Config.default);
    ("traditional", Config.traditional Config.default);
    ("scoped+spec", Config.with_speculation true (Config.scoped Config.default));
    ("small-rob", Config.with_rob_size 16 (Config.scoped Config.default));
    (* the ideal 1-cycle memory backend must preserve functional
       behaviour (only timing changes) and engine/reference identity *)
    ("ideal-mem", Config.with_mem_model Config.Ideal (Config.scoped Config.default));
  ]

let check_seed seed =
  let program_ast = gen_program seed in
  let program, info = Compile.compile program_ast in
  let expected =
    Interp.run_sequential program_ast ~layout:info.Compile.layout
  in
  List.iter
    (fun (label, config) ->
      let result = Machine.run config program in
      if result.Machine.timed_out then
        Alcotest.failf "seed %d (%s): simulation timed out" seed label;
      Array.iteri
        (fun addr v ->
          if result.Machine.mem.(addr) <> v then
            Alcotest.failf "seed %d (%s): mem[%d] = %d, interpreter says %d" seed label
              addr result.Machine.mem.(addr) v)
        expected)
    configs

let test_differential_batch lo hi () =
  for seed = lo to hi do
    check_seed seed
  done

(* Multicore: disjoint-data threads; the Tid expressions still differ
   per thread, but they only flow into thread-private state. *)
let check_disjoint_seed seed =
  let program_ast = gen_disjoint_program seed ~threads:4 in
  let program, info = Compile.compile program_ast in
  let expected = Interp.run_sequential program_ast ~layout:info.Compile.layout in
  List.iter
    (fun (label, config) ->
      let result = Machine.run config program in
      if result.Machine.timed_out then
        Alcotest.failf "seed %d (%s): simulation timed out" seed label;
      Array.iteri
        (fun addr v ->
          if result.Machine.mem.(addr) <> v then
            Alcotest.failf "seed %d (%s): mem[%d] = %d, interpreter says %d" seed label
              addr result.Machine.mem.(addr) v)
        expected)
    configs

let test_disjoint_batch lo hi () =
  for seed = lo to hi do
    check_disjoint_seed seed
  done

(* ------------------------------------------------------------------ *)
(* Engine differential: the event-horizon fast-forward loop
   (Machine.run) against the retained naive per-cycle loop
   (Machine.run_reference).  Every result field must agree exactly —
   cycle count, timeout flag, each per-core stats field, the per-core
   CPI attribution (every taxonomy leaf), the final memory image and
   the cache stats — on random programs under random configurations,
   including runs truncated by a small cycle limit.   *)

(* The spin fast-forward counters describe how the engine reached the
   result, not the result: they legitimately differ between the two
   loops (the reference never sleeps), so identity is checked over
   everything else. *)
let strip_spin (r : Machine.result) =
  {
    r with
    Machine.spin = { Machine.sleeps = 0; cycles_skipped = 0; wakes = 0 };
  }

let explain_mismatch label seed (a : Machine.result) (b : Machine.result) =
  let check name va vb acc =
    if va = vb then acc else Printf.sprintf "%s%s: engine %d, reference %d; " acc name va vb
  in
  let acc = "" in
  let acc = check "cycles" a.Machine.cycles b.Machine.cycles acc in
  let acc =
    check "timed_out" (Bool.to_int a.Machine.timed_out) (Bool.to_int b.Machine.timed_out)
      acc
  in
  let acc = ref acc in
  Array.iteri
    (fun i (sa : Fscope_cpu.Core.stats) ->
      let sb = b.Machine.core_stats.(i) in
      let c name va vb = acc := check (Printf.sprintf "core%d/%s" i name) va vb !acc in
      c "committed" sa.committed sb.committed;
      c "fence_stall_cycles" sa.fence_stall_cycles sb.fence_stall_cycles;
      c "stall_rob_load" sa.stall_rob_load sb.stall_rob_load;
      c "stall_rob_store" sa.stall_rob_store sb.stall_rob_store;
      c "stall_sb" sa.stall_sb sb.stall_sb;
      c "sb_stall_cycles" sa.sb_stall_cycles sb.sb_stall_cycles;
      c "active_cycles" sa.active_cycles sb.active_cycles;
      c "rob_occupancy_sum" sa.rob_occupancy_sum sb.rob_occupancy_sum)
    a.Machine.core_stats;
  Array.iteri
    (fun i ca ->
      let cb = b.Machine.core_cpi.(i) in
      List.iter
        (fun leaf ->
          acc :=
            check
              (Printf.sprintf "core%d/cpi/%s" i (Fscope_obs.Cpi.name leaf))
              (Fscope_obs.Cpi.get ca leaf) (Fscope_obs.Cpi.get cb leaf) !acc)
        Fscope_obs.Cpi.leaves)
    a.Machine.core_cpi;
  if a.Machine.mem <> b.Machine.mem then acc := !acc ^ "final memory differs; ";
  if a.Machine.cache <> b.Machine.cache then acc := !acc ^ "cache stats differ; ";
  Printf.sprintf "seed %d (%s): %s" seed label !acc

let engine_case_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 500 in
  let* multicore = bool in
  let* cfg_i = int_range 0 (List.length configs - 1) in
  (* Small limits force mid-flight truncation, exercising the engine's
     timeout clamping and pre-charged stall accounting. *)
  let* max_c = oneofl [ None; Some 50; Some 400; Some 3000 ] in
  return (seed, multicore, cfg_i, max_c)

let print_engine_case (seed, multicore, cfg_i, max_c) =
  Printf.sprintf "seed=%d multicore=%b config=%s max_cycles=%s" seed multicore
    (fst (List.nth configs cfg_i))
    (match max_c with None -> "default" | Some n -> string_of_int n)

let prop_engine_matches_reference =
  QCheck2.Test.make ~count:120 ~name:"fast-forward engine == naive reference loop"
    ~print:print_engine_case engine_case_gen
    (fun (seed, multicore, cfg_i, max_c) ->
      let program_ast =
        if multicore then gen_disjoint_program seed ~threads:4 else gen_program seed
      in
      let program, _info = Compile.compile program_ast in
      let label, config = List.nth configs cfg_i in
      let config =
        match max_c with None -> config | Some n -> Config.with_max_cycles n config
      in
      let engine = Machine.run config program in
      let reference = Machine.run_reference config program in
      if strip_spin engine = strip_spin reference then true
      else QCheck2.Test.fail_report (explain_mismatch label seed engine reference))

(* ------------------------------------------------------------------ *)
(* Spin fast-forward differential: flag-handshake programs in which
   one or more cores spin for a random (often long) time while a
   worker counts down, then wake and do observable work.  These are
   exactly the shapes the spin fast-forward sleeps through, so they
   pin down its bit-identity: engine with FF on == engine with FF off
   == naive reference, in every result field (cycles, all stats, CPI
   leaves, final memory, cache counters). *)

module Isa = Fscope_isa

let handshake_program rng =
  let open Isa in
  let r n = Reg.r n in
  let iters = 30 + Rng.int rng 4000 in
  let spinners = 1 + Rng.int rng 3 in
  (* Worker: burn [iters] countdown iterations (a counting loop the
     probe must refuse to arm — its ARF changes every boundary), then
     publish data and raise the flag.  flag @ 0, data @ 1. *)
  let worker =
    [|
      Instr.Li (r 1, iters);
      Instr.Alu (Instr.Sub, r 1, r 1, Instr.Imm 1);
      Instr.Branch { cond = Instr.Nez; src = r 1; target = 1 };
      Instr.Li (r 2, 1000 + Rng.int rng 1000);
      Instr.Store { src = r 2; base = Reg.zero; off = 1; flagged = false };
      Instr.Li (r 3, 1);
      Instr.Store { src = r 3; base = Reg.zero; off = 0; flagged = false };
      Instr.Halt;
    |]
  in
  (* Spinners: wait on the flag, then copy the data word to a private
     slot.  Variants vary the loop body to exercise the probe: extra
     ALU work (longer period), a second watched load (bigger
     footprint), or a bounded spin that falls through on a counter
     (must never arm: its ARF changes every boundary). *)
  let spinner id =
    let slot = 2 + id in
    let finish = [
      Instr.Load { dst = r 2; base = Reg.zero; off = 1; flagged = false };
      Instr.Store { src = r 2; base = Reg.zero; off = slot; flagged = false };
      Instr.Halt;
    ] in
    match Rng.int rng 4 with
    | 0 ->
      (* plain flag spin *)
      Array.of_list
        ([
           Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
           Instr.Branch { cond = Instr.Eqz; src = r 1; target = 0 };
         ]
        @ finish)
    | 1 ->
      (* ALU padding inside the loop body *)
      Array.of_list
        ([
           Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
           Instr.Alu (Instr.Add, r 3, r 1, Instr.Imm 0);
           Instr.Alu (Instr.Or, r 3, r 3, Instr.Reg (r 1));
           Instr.Branch { cond = Instr.Eqz; src = r 1; target = 0 };
         ]
        @ finish)
    | 2 ->
      (* two watched locations: spin until flag && data-ready sentinel *)
      Array.of_list
        ([
           Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
           Instr.Load { dst = r 3; base = Reg.zero; off = 1; flagged = false };
           Instr.Alu (Instr.And, r 4, r 1, Instr.Imm 1);
           Instr.Branch { cond = Instr.Eqz; src = r 4; target = 0 };
         ]
        @ finish)
    | _ ->
      (* bounded spin: countdown in the body keeps the ARF changing,
         so the stability probe must keep refusing to arm; falls
         through to the finish when the budget runs out first *)
      Array.of_list
        ([
           Instr.Li (r 5, 50 + Rng.int rng 200);
           Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
           Instr.Alu (Instr.Sub, r 5, r 5, Instr.Imm 1);
           Instr.Branch { cond = Instr.Nez; src = r 1; target = 5 };
           Instr.Branch { cond = Instr.Nez; src = r 5; target = 1 };
         ]
        @ finish)
  in
  Program.make
    ~threads:(worker :: List.init spinners spinner)
    ~mem_words:16 ()

let spin_case_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 10_000 in
  let* cfg_i = int_range 0 (List.length configs - 1) in
  let* max_c = oneofl [ None; Some 200; Some 5000 ] in
  return (seed, cfg_i, max_c)

let print_spin_case (seed, cfg_i, max_c) =
  Printf.sprintf "seed=%d config=%s max_cycles=%s" seed
    (fst (List.nth configs cfg_i))
    (match max_c with None -> "default" | Some n -> string_of_int n)

let prop_spin_ff_identity =
  QCheck2.Test.make ~count:80 ~name:"spin fast-forward on/off/reference identity"
    ~print:print_spin_case spin_case_gen (fun (seed, cfg_i, max_c) ->
      let program = handshake_program (Rng.create seed) in
      let label, config = List.nth configs cfg_i in
      let config =
        match max_c with None -> config | Some n -> Config.with_max_cycles n config
      in
      let ff_on = Machine.run config program in
      let ff_off = Machine.run (Config.with_spin_fastforward false config) program in
      let reference = Machine.run_reference config program in
      if strip_spin ff_on <> strip_spin reference then
        QCheck2.Test.fail_report
          ("FF on: " ^ explain_mismatch label seed ff_on reference)
      else if strip_spin ff_off <> strip_spin reference then
        QCheck2.Test.fail_report
          ("FF off: " ^ explain_mismatch label seed ff_off reference)
      else if ff_off.Machine.spin.Machine.cycles_skipped <> 0 then
        QCheck2.Test.fail_report "FF off must not skip cycles"
      else true)

(* ------------------------------------------------------------------ *)
(* Checkpoint round-trip: interrupt a run mid-flight, push the
   whole-machine checkpoint through its JSON wire format, resume from
   the parsed copy, and require the resumed run to be bit-identical to
   the uninterrupted one — across both program families, spin
   fast-forward on/off and both memory models.  The run being
   checkpointed must itself be unperturbed by the capture. *)

module Checkpoint = Fscope_machine.Checkpoint
module Json = Fscope_util.Json

let ckpt_case_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 10_000 in
  let* handshake = bool in
  let* spin_ff = bool in
  let* ideal = bool in
  (* small intervals force a capture well inside the run *)
  let* every = oneofl [ 40; 200; 1000 ] in
  return (seed, handshake, spin_ff, ideal, every)

let print_ckpt_case (seed, handshake, spin_ff, ideal, every) =
  Printf.sprintf "seed=%d program=%s spin_ff=%b mem=%s every=%d" seed
    (if handshake then "handshake" else "disjoint")
    spin_ff
    (if ideal then "ideal" else "hierarchy")
    every

let prop_checkpoint_roundtrip =
  QCheck2.Test.make ~count:50 ~name:"mid-run checkpoint restore == uninterrupted run"
    ~print:print_ckpt_case ckpt_case_gen
    (fun (seed, handshake, spin_ff, ideal, every) ->
      let program =
        if handshake then handshake_program (Rng.create seed)
        else fst (Compile.compile (gen_disjoint_program seed ~threads:4))
      in
      let config =
        Config.v ~base:(Config.scoped Config.default) ~spin_fastforward:spin_ff
          ~mem_model:(if ideal then Config.Ideal else Config.Hierarchy)
          ()
      in
      let baseline = Machine.run config program in
      let first = ref None in
      let sink ck = if Option.is_none !first then first := Some ck in
      let observed = Machine.run ~checkpoint:(every, sink) config program in
      if strip_spin observed <> strip_spin baseline then
        QCheck2.Test.fail_report
          ("capture perturbed the run: " ^ explain_mismatch "ckpt" seed observed baseline)
      else
        match !first with
        | None ->
          (* the run finished before the first capture point; the
             unperturbed-run identity above is the whole property *)
          true
        | Some ck ->
          let ck =
            Checkpoint.of_json (Json.parse (Json.render (Checkpoint.to_json ck)))
          in
          Checkpoint.validate ck config program;
          let resumed = Machine.run ~resume:ck config program in
          if strip_spin resumed = strip_spin baseline then true
          else
            QCheck2.Test.fail_report
              ("resumed run diverged: "
              ^ explain_mismatch "ckpt-resume" seed resumed baseline))

(* Compact checkpoint encoding: the v1z form (zero-run elision over
   every large mostly-zero array) must be dramatically smaller than
   the plain rendering at production core counts, and resuming through
   the compact wire format must be bit-identical to resuming through
   the plain one. *)
let test_compact_checkpoint () =
  let module Mpmc = Fscope_workloads.Mpmc in
  let module Workload = Fscope_workloads.Workload in
  let w = Mpmc.make ~threads:64 ~per_producer:4 ~scope:`Class () in
  let program = w.Workload.program in
  let config = Config.scoped Config.default in
  let first = ref None in
  let sink ck = if Option.is_none !first then first := Some ck in
  let baseline = Machine.run ~checkpoint:(400, sink) config program in
  match !first with
  | None -> Alcotest.fail "64-core run finished before the first capture point"
  | Some ck ->
    (* the same renderings [Checkpoint.save] writes: pretty plain,
       minified compact *)
    let plain = Json.render_pretty (Checkpoint.to_json ck) in
    let compact = Json.render (Checkpoint.to_json ~compact:true ck) in
    let ratio = float_of_int (String.length plain) /. float_of_int (String.length compact) in
    if ratio < 5.0 then
      Alcotest.failf "compact checkpoint only %.1fx smaller (plain %d bytes, compact %d)"
        ratio (String.length plain) (String.length compact);
    let via fmt = Checkpoint.of_json (Json.parse fmt) in
    let ck_plain = via plain and ck_compact = via compact in
    Alcotest.(check bool) "wire forms decode identically" true (ck_plain = ck_compact);
    Checkpoint.validate ck_compact config program;
    let resumed = Machine.run ~resume:ck_compact config program in
    Alcotest.(check bool) "compact resume == uninterrupted run" true
      (strip_spin resumed = strip_spin baseline)

(* ------------------------------------------------------------------ *)
(* The completion bound.  Core_exec skips its completion scans while
   the cycle is below [Rob.due_lo], so the bound must never exceed a
   pending deadline, and the scans it does run must leave no entry
   executing past its deadline.  Checked after every cycle of a naive
   three-phase loop over the random program families, through
   mispredict squashes and a checkpoint restore into fresh cores. *)

module Core = Fscope_cpu.Core
module Rob = Fscope_cpu.Rob
module Hierarchy = Fscope_mem.Hierarchy
module Program = Fscope_isa.Program

let check_completion_bound ~what core ~cycle =
  let rob = Core.rob core in
  Rob.iter rob (fun e ->
      if e.Rob.state = Rob.Executing then begin
        if e.Rob.done_at <= cycle then
          Alcotest.failf "%s, cycle %d: seq %d still executing, due at %d" what cycle
            e.Rob.seq e.Rob.done_at;
        if Rob.due_lo rob > e.Rob.done_at then
          Alcotest.failf "%s, cycle %d: due_lo %d above seq %d's deadline %d" what cycle
            (Rob.due_lo rob) e.Rob.seq e.Rob.done_at
      end)

(* Returns the run's mispredict count and whether it reached the
   restore point, so the caller can tell both paths ran. *)
let run_checking_bound ~what (config : Config.t) program ~restore_at =
  let n = Program.thread_count program in
  let mem = Program.initial_memory program in
  let hierarchy = Hierarchy.create ~cores:n config.Config.mem in
  let kind = function
    | Fscope_cpu.Mem_port.Read -> Hierarchy.Read
    | Fscope_cpu.Mem_port.Write -> Hierarchy.Write
    | Fscope_cpu.Mem_port.Rmw -> Hierarchy.Rmw
  in
  let port =
    Fscope_cpu.Mem_port.make ~size:(Array.length mem)
      ~issue:(fun ~core k ~addr ~now ->
        match config.Config.mem_model with
        | Config.Ideal -> (now + 1, Fscope_obs.Event.L1_hit)
        | Config.Hierarchy ->
          let latency, level =
            Hierarchy.access_classified hierarchy ~core (kind k) ~addr
          in
          (now + latency, level))
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value -> mem.(addr) <- value)
  in
  let fresh id =
    Core.create ~id ~code:program.Program.threads.(id) ~port
      ~scope_config:config.Config.scope ~exec_config:config.Config.exec ()
  in
  let cores = Array.init n fresh in
  let cycle = ref 0 in
  while
    (not (Array.for_all Core.drained cores)) && !cycle < config.Config.max_cycles
  do
    if !cycle = restore_at then
      Array.iteri
        (fun id core ->
          let j = Json.parse (Json.render (Core.snapshot core)) in
          let c = fresh id in
          Core.restore c j;
          if Rob.due_lo (Core.rob c) <> min_int then
            Alcotest.failf "%s: restore left due_lo at %d" what (Rob.due_lo (Core.rob c));
          cores.(id) <- c)
        cores;
    let c = !cycle in
    Array.iter (fun core -> ignore (Core.step_complete_writes core ~cycle:c)) cores;
    Array.iter (fun core -> ignore (Core.step_complete_reads core ~cycle:c)) cores;
    Array.iter (fun core -> ignore (Core.step_pipeline core ~cycle:c)) cores;
    Array.iter (check_completion_bound ~what ~cycle:c) cores;
    incr cycle
  done;
  let reference = Machine.run_reference config program in
  if !cycle <> reference.Machine.cycles then
    Alcotest.failf "%s: %d cycles, reference %d" what !cycle reference.Machine.cycles;
  if mem <> reference.Machine.mem then Alcotest.failf "%s: final memory differs" what;
  ( Array.fold_left (fun acc core -> acc + (Core.stats core).Core.mispredicts) 0 cores,
    !cycle > restore_at )

let test_completion_bound () =
  let mispredicts = ref 0 and restores = ref 0 in
  let check ~what config program =
    List.iter
      (fun restore_at ->
        let m, restored =
          run_checking_bound
            ~what:(Printf.sprintf "%s, restore at %d" what restore_at)
            config program ~restore_at
        in
        mispredicts := !mispredicts + m;
        if restored then incr restores)
      [ 60; 400 ]
  in
  List.iter
    (fun (label, config) ->
      for seed = 1 to 12 do
        check
          ~what:(Printf.sprintf "seed %d (%s)" seed label)
          config
          (fst (Compile.compile (gen_program seed)));
        if seed <= 4 then
          check
            ~what:(Printf.sprintf "disjoint seed %d (%s)" seed label)
            config
            (fst (Compile.compile (gen_disjoint_program seed ~threads:4)))
      done)
    configs;
  if !mispredicts = 0 then Alcotest.fail "no run squashed a mispredicted path";
  if !restores = 0 then Alcotest.fail "no run reached its restore point"

let tests =
  [
    Alcotest.test_case "random programs 1-60" `Quick (test_differential_batch 1 60);
    Alcotest.test_case "random programs 61-120" `Quick (test_differential_batch 61 120);
    Alcotest.test_case "random programs 121-200" `Slow (test_differential_batch 121 200);
    Alcotest.test_case "4-core disjoint programs 1-40" `Quick (test_disjoint_batch 1 40);
    Alcotest.test_case "4-core disjoint programs 41-100" `Slow (test_disjoint_batch 41 100);
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    QCheck_alcotest.to_alcotest prop_spin_ff_identity;
    QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
    Alcotest.test_case "compact checkpoint: >=5x smaller, identical resume" `Quick
      test_compact_checkpoint;
    Alcotest.test_case "completion bound holds every cycle (squash, restore)" `Quick
      test_completion_bound;
  ]
