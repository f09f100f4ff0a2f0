(* Direct unit tests for the CPU building blocks (the pipeline itself
   is covered end to end by test_sim and test_differential). *)

module Rob = Fscope_cpu.Rob
module Core = Fscope_cpu.Core
module Mem_port = Fscope_cpu.Mem_port
module Sb = Fscope_cpu.Store_buffer
module Bp = Fscope_cpu.Branch_pred
module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Fsb = Fscope_core.Fsb
module Fk = Fscope_isa.Fence_kind

let entry seq = Rob.make_entry ~seq ~pc:seq ~instr:Instr.Nop ~srcs:[||]

let test_rob_fifo () =
  let rob = Rob.create ~size:4 () in
  Alcotest.(check bool) "empty" true (Rob.is_empty rob);
  for s = 0 to 3 do
    Rob.dispatch rob (entry s)
  done;
  Alcotest.(check bool) "full" true (Rob.is_full rob);
  Alcotest.(check int) "head is 0" 0 (Rob.pop_head rob).Rob.seq;
  Rob.dispatch rob (entry 4);
  Alcotest.(check int) "count" 4 (Rob.count rob);
  Alcotest.(check int) "head is 1" 1 (Rob.pop_head rob).Rob.seq

let test_rob_wrong_seq () =
  let rob = Rob.create ~size:4 () in
  Alcotest.check_raises "wrong seq" (Invalid_argument "Rob.dispatch: wrong seq") (fun () ->
      Rob.dispatch rob (entry 5))

let test_rob_squash () =
  let rob = Rob.create ~size:8 () in
  for s = 0 to 5 do
    Rob.dispatch rob (entry s)
  done;
  let removed = Rob.squash_after rob 2 in
  Alcotest.(check (list int)) "removed 3,4,5" [ 3; 4; 5 ]
    (List.map (fun (e : Rob.entry) -> e.Rob.seq) removed);
  Alcotest.(check int) "count" 3 (Rob.count rob);
  Alcotest.(check int) "next seq" 3 (Rob.next_seq rob);
  Rob.dispatch rob (entry 3);
  Alcotest.(check bool) "re-dispatch ok" true (Rob.contains rob 3)

let test_rob_iteration_helpers () =
  let rob = Rob.create ~size:8 () in
  for s = 0 to 4 do
    Rob.dispatch rob (entry s)
  done;
  let seen = ref [] in
  Rob.iter rob (fun e -> seen := e.Rob.seq :: !seen);
  Alcotest.(check (list int)) "iter oldest-first" [ 0; 1; 2; 3; 4 ] (List.rev !seen);
  Alcotest.(check int) "nothing pending" max_int (Rob.due_lo rob);
  Rob.set_exec rob (Rob.get rob 3) ~done_at:20;
  Rob.set_exec rob (Rob.get rob 1) ~done_at:12;
  Rob.set_exec rob (Rob.get rob 2) ~done_at:15;
  Alcotest.(check int) "set_exec lowers the bound" 12 (Rob.due_lo rob);
  Alcotest.(check bool) "executing" true ((Rob.get rob 1).Rob.state = Rob.Executing);
  Rob.restore rob ~head_seq:7 [];
  Alcotest.(check int) "restore resets the bound" min_int (Rob.due_lo rob)

(* ------------------------------------------------------------------ *)
(* Memory ordering in a live core.  Each case hand-assembles a tiny
   program for one core over a flat memory whose accesses take [slow]
   cycles at the [slow_addrs] and 2 cycles elsewhere, steps it with the
   machine's three-phase protocol, and watches the ROB after every
   cycle: the ordering rule must show in the pipeline, not just in the
   final memory. *)

let r = Reg.r
let ld dst base off = Instr.Load { dst; base; off; flagged = false }
let st src base off = Instr.Store { src; base; off; flagged = false }

let run_core ?(slow = 40) ~slow_addrs ~mem code ~observe =
  let port =
    Mem_port.make ~size:(Array.length mem)
      ~issue:(fun ~core:_ _ ~addr ~now ->
        ((now + if List.mem addr slow_addrs then slow else 2), Fscope_obs.Event.L1_hit))
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value -> mem.(addr) <- value)
  in
  let core =
    Core.create ~id:0 ~code ~port ~scope_config:Fscope_core.Scope_unit.default_config
      ~exec_config:Fscope_cpu.Exec_config.default ()
  in
  let cycle = ref 0 in
  while (not (Core.drained core)) && !cycle < 1000 do
    ignore (Core.step_complete_writes core ~cycle:!cycle);
    ignore (Core.step_complete_reads core ~cycle:!cycle);
    ignore (Core.step_pipeline core ~cycle:!cycle);
    observe (Core.rob core);
    incr cycle
  done;
  Alcotest.(check bool) "core drained" true (Core.drained core)

(* The in-flight entry dispatched from [pc], if any. *)
let at_pc rob pc =
  let found = ref None in
  Rob.iter rob (fun e -> if e.Rob.pc = pc then found := Some e);
  !found

let test_load_waits_unknown_store_addr () =
  (* The store's base comes from a slow load, so its address stays
     unknown for ~40 cycles; the younger load to the same word has its
     address at once and must still wait, then forward the data. *)
  let mem = Array.make 16 0 in
  mem.(0) <- 5;
  let code =
    [| Instr.Li (r 1, 7); ld (r 2) Reg.zero 0; st (r 1) (r 2) 0; ld (r 3) Reg.zero 5;
       st (r 3) Reg.zero 6; Instr.Halt |]
  in
  let held = ref false in
  run_core ~slow_addrs:[ 0 ] ~mem code ~observe:(fun rob ->
      match (at_pc rob 2, at_pc rob 3) with
      | Some s, Some l when s.Rob.addr < 0 ->
        if l.Rob.addr = 5 && l.Rob.state = Rob.Waiting then held := true;
        Alcotest.(check bool) "load not issued past an unknown store address" true
          (l.Rob.state = Rob.Waiting)
      | _ -> ());
  Alcotest.(check bool) "load sat ready but waiting" true !held;
  Alcotest.(check int) "load saw the store's data" 7 mem.(6)

let test_forward_youngest_store () =
  (* A slow head load keeps both same-address stores in the ROB; the
     load must forward from the younger one. *)
  let mem = Array.make 16 0 in
  let code =
    [| ld (r 7) Reg.zero 0; Instr.Li (r 1, 1); Instr.Li (r 2, 2); st (r 1) Reg.zero 5;
       st (r 2) Reg.zero 5; ld (r 3) Reg.zero 5; st (r 3) Reg.zero 6; Instr.Halt |]
  in
  let forwarded = ref false in
  run_core ~slow_addrs:[ 0 ] ~mem code ~observe:(fun rob ->
      match (at_pc rob 0, at_pc rob 5) with
      | Some _, Some l when l.Rob.state <> Rob.Waiting ->
        forwarded := true;
        Alcotest.(check int) "forwarded in the ROB" 1 l.Rob.data2;
        Alcotest.(check int) "from the youngest store" 2 l.Rob.result
      | _ -> ());
  Alcotest.(check bool) "load issued while the stores were in flight" true !forwarded;
  Alcotest.(check int) "final value" 2 mem.(6)

let test_load_after_completed_cas () =
  (* A completed CAS has written memory; with the CAS still in the ROB
     (a slow head load holds commit), the younger load reads memory. *)
  let mem = Array.make 16 0 in
  let code =
    [| ld (r 7) Reg.zero 0; Instr.Li (r 1, 0); Instr.Li (r 2, 9);
       Instr.Cas
         { dst = r 3; base = Reg.zero; off = 5; expected = r 1; desired = r 2;
           flagged = false };
       ld (r 4) Reg.zero 5; st (r 4) Reg.zero 6; st (r 3) Reg.zero 7; Instr.Halt |]
  in
  let seen = ref false in
  run_core ~slow_addrs:[ 0 ] ~mem code ~observe:(fun rob ->
      match (at_pc rob 3, at_pc rob 4) with
      | Some c, Some l when l.Rob.state <> Rob.Waiting ->
        seen := true;
        Alcotest.(check bool) "CAS completed first" true (c.Rob.state = Rob.Done);
        Alcotest.(check int) "load reads memory" 0 l.Rob.data2
      | _ -> ());
  Alcotest.(check bool) "load issued with the CAS in the ROB" true !seen;
  Alcotest.(check int) "CAS succeeded" 1 mem.(7);
  Alcotest.(check int) "load saw the CAS's write" 9 mem.(6)

let test_cas_blocked_by_older_load () =
  (* The older load to the CAS's word is slow; the CAS has its address
     and operands at once but must not issue until the load is done,
     or the load would see the CAS's write. *)
  let mem = Array.make 16 0 in
  let code =
    [| ld (r 1) Reg.zero 5; Instr.Li (r 2, 0); Instr.Li (r 3, 9);
       Instr.Cas
         { dst = r 4; base = Reg.zero; off = 5; expected = r 2; desired = r 3;
           flagged = false };
       st (r 1) Reg.zero 6; Instr.Halt |]
  in
  let held = ref false in
  run_core ~slow_addrs:[ 5 ] ~mem code ~observe:(fun rob ->
      match (at_pc rob 0, at_pc rob 3) with
      | Some l, Some c when l.Rob.state <> Rob.Done ->
        if c.Rob.addr = 5 then held := true;
        Alcotest.(check bool)
          "CAS waits for the older load" true (c.Rob.state = Rob.Waiting)
      | _ -> ());
  Alcotest.(check bool) "CAS sat with its address known" true !held;
  Alcotest.(check int) "load saw the old value" 0 mem.(6);
  Alcotest.(check int) "CAS wrote afterwards" 9 mem.(5)

let sb_entry ?(mask = Fsb.empty) ~addr ~done_at () =
  { Sb.addr; value = 7; mask; done_at }

let test_sb_fifo_and_completion () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb (sb_entry ~addr:0 ~done_at:10 ());
  Sb.push sb (sb_entry ~addr:8 ~done_at:5 ());
  Alcotest.(check int) "count" 2 (Sb.count sb);
  let done_ = Sb.take_completed sb ~cycle:6 in
  Alcotest.(check (list int)) "early entry drains out of order" [ 8 ]
    (List.map (fun (e : Sb.entry) -> e.Sb.addr) done_);
  Alcotest.(check int) "one left" 1 (Sb.count sb)

let test_sb_forward_youngest () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb { Sb.addr = 3; value = 1; mask = Fsb.empty; done_at = 100 };
  Sb.push sb { Sb.addr = 3; value = 2; mask = Fsb.empty; done_at = 100 };
  Alcotest.(check (option int)) "youngest wins" (Some 2) (Sb.forward sb ~addr:3);
  Alcotest.(check (option int)) "miss" None (Sb.forward sb ~addr:4)

let test_sb_mask_overlap () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb (sb_entry ~mask:(Fsb.column 1) ~addr:0 ~done_at:10 ());
  Alcotest.(check bool) "overlap" true (Sb.mask_overlaps sb (Fsb.column 1));
  Alcotest.(check bool) "no overlap" false (Sb.mask_overlaps sb (Fsb.column 2))

let test_sb_capacity () =
  let sb = Sb.create ~capacity:1 () in
  Sb.push sb (sb_entry ~addr:0 ~done_at:1 ());
  Alcotest.(check bool) "full" true (Sb.is_full sb);
  Alcotest.check_raises "push full" (Invalid_argument "Store_buffer.push: full") (fun () ->
      Sb.push sb (sb_entry ~addr:1 ~done_at:1 ()))

let test_bpred_learns () =
  let bp = Bp.create ~entries:16 in
  (* initial state is weakly not-taken *)
  Alcotest.(check bool) "cold predicts not-taken" false (Bp.predict bp ~pc:3);
  Bp.update bp ~pc:3 ~taken:true;
  Alcotest.(check bool) "one taken flips weak counter" true (Bp.predict bp ~pc:3);
  Bp.update bp ~pc:3 ~taken:true;
  Bp.update bp ~pc:3 ~taken:false;
  Alcotest.(check bool) "hysteresis survives one not-taken" true (Bp.predict bp ~pc:3);
  Bp.update bp ~pc:3 ~taken:false;
  Bp.update bp ~pc:3 ~taken:false;
  Alcotest.(check bool) "retrained" false (Bp.predict bp ~pc:3)

let test_bpred_aliasing () =
  let bp = Bp.create ~entries:4 in
  Bp.update bp ~pc:0 ~taken:true;
  Bp.update bp ~pc:0 ~taken:true;
  (* pc 4 aliases pc 0 in a 4-entry table *)
  Alcotest.(check bool) "aliased entry shares state" true (Bp.predict bp ~pc:4)

let test_fence_kind_flavors () =
  Alcotest.(check bool) "full waits stores" true Fk.full.Fk.wait_stores;
  let ss = Fk.store_store Fk.class_scoped in
  Alcotest.(check bool) "ss keeps scope" true (Fk.scope_of ss = Fk.Class_scope);
  Alcotest.(check bool) "ss skips loads" false ss.Fk.wait_loads;
  Alcotest.(check bool) "ss does not block loads" false ss.Fk.block_loads;
  let ll = Fk.load_load Fk.set_scoped in
  Alcotest.(check bool) "ll skips stores" false ll.Fk.wait_stores;
  Alcotest.(check bool) "ll blocks loads" true ll.Fk.block_loads;
  Alcotest.(check string) "printing" "S-FENCE[class].ss" (Fk.to_string ss)

let tests =
  [
    Alcotest.test_case "rob fifo" `Quick test_rob_fifo;
    Alcotest.test_case "rob wrong seq" `Quick test_rob_wrong_seq;
    Alcotest.test_case "rob squash" `Quick test_rob_squash;
    Alcotest.test_case "rob iteration" `Quick test_rob_iteration_helpers;
    Alcotest.test_case "load waits on unknown store address" `Quick
      test_load_waits_unknown_store_addr;
    Alcotest.test_case "load forwards from youngest store" `Quick
      test_forward_youngest_store;
    Alcotest.test_case "load after completed CAS reads memory" `Quick
      test_load_after_completed_cas;
    Alcotest.test_case "CAS blocked by older same-address load" `Quick
      test_cas_blocked_by_older_load;
    Alcotest.test_case "sb completion order" `Quick test_sb_fifo_and_completion;
    Alcotest.test_case "sb forwarding" `Quick test_sb_forward_youngest;
    Alcotest.test_case "sb mask overlap" `Quick test_sb_mask_overlap;
    Alcotest.test_case "sb capacity" `Quick test_sb_capacity;
    Alcotest.test_case "bpred learning" `Quick test_bpred_learns;
    Alcotest.test_case "bpred aliasing" `Quick test_bpred_aliasing;
    Alcotest.test_case "fence kind flavors" `Quick test_fence_kind_flavors;
  ]
