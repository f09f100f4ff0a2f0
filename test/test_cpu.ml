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

(* Dispatch [instr] (a nop by default) at the tail; its pc is its seq. *)
let push ?(instr = Instr.Nop) rob = Rob.dispatch rob ~pc:(Rob.next_seq rob) ~instr

let pushes rob n =
  for _ = 1 to n do
    ignore (push rob)
  done

let test_rob_fifo () =
  let rob = Rob.create ~size:4 () in
  Alcotest.(check bool) "empty" true (Rob.is_empty rob);
  pushes rob 4;
  Alcotest.(check bool) "full" true (Rob.is_full rob);
  Alcotest.(check int) "head is 0" 0 (Rob.pop_head rob).Rob.seq;
  Alcotest.(check int) "dispatched seq 4" 4 (push rob).Rob.seq;
  Alcotest.(check int) "count" 4 (Rob.count rob);
  Alcotest.(check int) "head is 1" 1 (Rob.pop_head rob).Rob.seq

let test_rob_dispatch_full () =
  let rob = Rob.create ~size:4 () in
  List.iter
    (fun s -> Alcotest.(check int) "takes the next seq" s (push rob).Rob.seq)
    [ 0; 1; 2; 3 ];
  Alcotest.check_raises "full" (Invalid_argument "Rob.dispatch: full") (fun () ->
      ignore (push rob))

let test_rob_squash () =
  let rob = Rob.create ~size:8 () in
  pushes rob 6;
  Rob.squash_after rob 2;
  Alcotest.(check (list bool)) "removed 3,4,5" [ true; true; true; false; false; false ]
    (List.map (Rob.contains rob) [ 0; 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "count" 3 (Rob.count rob);
  Alcotest.(check int) "next seq" 3 (Rob.next_seq rob);
  ignore (push rob);
  Alcotest.(check bool) "re-dispatch ok" true (Rob.contains rob 3)

(* Every seq [next] visits from the head, in the order it visits them. *)
let walk rob next =
  let rec go s acc = if s >= Rob.next_seq rob then List.rev acc else go (next rob (s + 1)) (s :: acc) in
  go (next rob (Rob.head_seq rob)) []

let store = Instr.Store { src = Reg.zero; base = Reg.zero; off = 0; flagged = false }

(* The slot index through a wrapped ring: fill the ROB, commit just
   over half of it, refill so the tail wraps past slot 0, then give
   the entries a pattern of states and check that every query visits
   exactly the matching seqs, in seq order, from the head and from
   mid-window.  Size 5 is one word; 64 and 128 cross word boundaries
   (63 members per word); 33 is an odd size inside one word. *)
let test_rob_iteration_helpers () =
  List.iter
    (fun size ->
      let rob = Rob.create ~size () in
      let fresh () =
        ignore (if Rob.next_seq rob mod 4 = 2 then push ~instr:store rob else push rob)
      in
      for _ = 1 to size do
        fresh ()
      done;
      let popped = (size / 2) + 1 in
      for _ = 1 to popped do
        ignore (Rob.pop_head rob)
      done;
      for _ = 1 to popped do
        fresh ()
      done;
      let head = Rob.head_seq rob in
      let seqs = List.init size (fun i -> head + i) in
      let seen = ref [] in
      Rob.iter rob (fun e -> seen := e.Rob.seq :: !seen);
      Alcotest.(check (list int)) "iter oldest-first" seqs (List.rev !seen);
      List.iter
        (fun s ->
          let e = Rob.get rob s in
          match s mod 3 with
          | 0 -> Rob.set_exec rob e ~done_at:(100 + s)
          | 1 -> Rob.set_done rob e
          | _ -> if s mod 8 = 2 then Rob.set_addr rob e s)
        seqs;
      let named what = Printf.sprintf "size %d: %s" size what in
      let only p = List.filter p seqs in
      let executing = only (fun s -> s mod 3 = 0) in
      let not_done = only (fun s -> s mod 3 <> 1) in
      Alcotest.(check (list int)) (named "executing") executing (walk rob Rob.next_executing);
      Alcotest.(check (list int)) (named "not done") not_done (walk rob Rob.next_not_done);
      Alcotest.(check (list int)) (named "issuable (nothing parked)") not_done
        (walk rob Rob.next_issuable);
      Alcotest.(check (list int)) (named "parked") [] (walk rob Rob.next_parked);
      Alcotest.(check (list int))
        (named "unknown-address writers")
        (only (fun s -> s mod 4 = 2 && not (s mod 3 = 2 && s mod 8 = 2)))
        (walk rob Rob.next_unknown_writer);
      let mid = head + (size / 2) in
      Alcotest.(check int)
        (named "next executing from mid-window")
        (match List.filter (fun s -> s >= mid) executing with
        | s :: _ -> s
        | [] -> Rob.next_seq rob)
        (Rob.next_executing rob mid);
      Alcotest.(check int)
        (named "past the tail")
        (Rob.next_seq rob)
        (Rob.next_not_done rob (Rob.next_seq rob + 3));
      Rob.reset_window rob ~head_seq:7;
      Alcotest.(check (list int)) (named "reset_window empties the index") []
        (walk rob Rob.next_not_done))
    [ 5; 33; 64; 128 ]

(* A producer finishing releases exactly the consumers parked on it,
   and a squashed consumer is unlinked from its surviving producer, so
   that producer cannot release the slot's next occupant (the first
   seq 5 reads seq 2; the one dispatched after the squash reads seq 0). *)
let test_rob_park_release () =
  let rob = Rob.create ~size:8 () in
  let reads producers =
    let e = push rob in
    List.iteri
      (fun k p ->
        e.Rob.src_producer.(k) <- p;
        e.Rob.src_reg.(k) <- Reg.r 1)
      producers;
    e.Rob.src_count <- List.length producers
  in
  pushes rob 3;
  reads [ 1 ];
  reads [ 1 ];
  reads [ 2 ];
  let park s ~on = Rob.park rob (Rob.get rob s) ~on in
  park 3 ~on:1;
  park 4 ~on:1;
  park 5 ~on:2;
  Alcotest.(check (list int)) "parked" [ 3; 4; 5 ] (walk rob Rob.next_parked);
  Alcotest.(check (list int)) "issuable" [ 0; 1; 2 ] (walk rob Rob.next_issuable);
  Rob.set_done rob (Rob.get rob 1);
  Alcotest.(check (list int)) "set_done releases its consumers" [ 5 ] (walk rob Rob.next_parked);
  Alcotest.(check (list int)) "released ones are issuable" [ 0; 2; 3; 4 ]
    (walk rob Rob.next_issuable);
  Rob.squash_after rob 4;
  Alcotest.(check (list int)) "squash drops the parked consumer" [] (walk rob Rob.next_parked);
  reads [ 0 ];
  park 5 ~on:0;
  Rob.set_done rob (Rob.get rob 2);
  Alcotest.(check (list int)) "the squashed consumer's producer releases nothing" [ 5 ]
    (walk rob Rob.next_parked);
  Rob.set_done rob (Rob.get rob 0);
  Alcotest.(check (list int)) "its own producer releases it" [] (walk rob Rob.next_parked);
  Alcotest.check_raises "producer must be in flight"
    (Invalid_argument "Rob.park: producer not in flight") (fun () -> park 5 ~on:9)

(* Slots are recycled in place.  Fill a ROB with entries whose every
   mutable field is set (operands, a checkpoint, parked consumers, an
   executing entry), squash and commit them all, then dispatch into
   the same slots: each new entry must start exactly as fresh, and no
   parked or waiter bit may survive into it. *)
let test_rob_slot_reuse () =
  let rob = Rob.create ~size:4 () in
  let cas =
    Instr.Cas
      { dst = Reg.r 1; base = Reg.r 2; off = 0; expected = Reg.r 3; desired = Reg.r 4; flagged = true }
  in
  let instrs =
    [ Instr.Nop; Instr.Branch { cond = Instr.Eqz; src = Reg.r 1; target = 0 }; cas; Instr.Fence Fk.full ]
  in
  let old = List.map (fun instr -> push ~instr rob) instrs in
  List.iter
    (fun (e : Rob.entry) ->
      e.result <- 7;
      Rob.set_addr rob e 9;
      e.data <- 5;
      e.data2 <- 6;
      e.scope_mask <- Fsb.column 1;
      e.fence_wait <- Some `Global;
      e.fence_issued <- true;
      e.fence_cid <- 2;
      e.mem_level <- Some Fscope_obs.Event.L2_miss;
      e.predicted_taken <- true;
      Array.fill e.checkpoint 0 (Array.length e.checkpoint) 0;
      e.checkpointed <- true;
      for k = 0 to Rob.max_srcs - 1 do
        e.src_producer.(k) <- 0;
        e.src_reg.(k) <- Reg.r 5
      done;
      e.src_count <- Rob.max_srcs)
    old;
  Rob.set_exec rob (Rob.get rob 1) ~done_at:77;
  Rob.park rob (Rob.get rob 2) ~on:0;
  Rob.park rob (Rob.get rob 3) ~on:0;
  Rob.squash_after rob 0;
  ignore (Rob.pop_head rob);
  Alcotest.(check bool) "empty" true (Rob.is_empty rob);
  Alcotest.(check int) "the squash rewound the seqs" 1 (Rob.next_seq rob);
  let fresh = List.map (fun instr -> push ~instr rob) (List.rev instrs) in
  List.iteri
    (fun i (e : Rob.entry) ->
      let s = 1 + i in
      let named what = Printf.sprintf "seq %d: %s" s what in
      Alcotest.(check bool) (named "reuses a slot") true (List.memq e old);
      Alcotest.(check int) (named "seq") s e.seq;
      Alcotest.(check int) (named "pc") s e.pc;
      Alcotest.(check bool) (named "instr") true (e.instr = List.nth (List.rev instrs) i);
      Alcotest.(check bool) (named "waiting") true (e.state = Rob.Waiting);
      Alcotest.(check int) (named "done_at") 0 e.done_at;
      Alcotest.(check int) (named "result") 0 e.result;
      Alcotest.(check int) (named "addr") (-1) e.addr;
      Alcotest.(check int) (named "data") 0 e.data;
      Alcotest.(check int) (named "data2") 0 e.data2;
      Alcotest.(check int) (named "scope_mask") Fsb.empty e.scope_mask;
      Alcotest.(check bool) (named "fence_wait") true (e.fence_wait = None);
      Alcotest.(check bool) (named "fence_issued") false e.fence_issued;
      Alcotest.(check int) (named "fence_cid") (-1) e.fence_cid;
      Alcotest.(check bool) (named "mem_level") true (e.mem_level = None);
      Alcotest.(check bool) (named "predicted_taken") false e.predicted_taken;
      Alcotest.(check bool) (named "no checkpoint") false e.checkpointed;
      Alcotest.(check int) (named "no operands") 0 e.src_count)
    fresh;
  Alcotest.(check (list int)) "nothing parked" [] (walk rob Rob.next_parked);
  Alcotest.(check (list int)) "nothing executing" [] (walk rob Rob.next_executing);
  Alcotest.(check (list int)) "all not done" [ 1; 2; 3; 4 ] (walk rob Rob.next_not_done);
  Alcotest.(check (list int)) "only the new CAS lacks an address" [ 2 ]
    (walk rob Rob.next_unknown_writer);
  (* Slot 0 held the producer the old consumers in slots 2 and 3 were
     parked on.  Its new occupant (seq 4) finishing must release only
     consumers parked on it: none. *)
  Rob.park rob (Rob.get rob 2) ~on:1;
  Rob.park rob (Rob.get rob 3) ~on:1;
  Rob.set_done rob (Rob.get rob 4);
  Alcotest.(check (list int)) "no stale waiter bits" [ 2; 3 ] (walk rob Rob.next_parked)

(* Dispatch and squash allocate nothing: ROB entries, their operands
   and branch checkpoints live in the ROB's slots, and the scope unit's
   event FIFO is a ring.  A branchy scoped loop (a pseudo-random branch
   that mispredicts about half the time, fs_start/fs_end around a
   scoped load) is warmed up, then stepped for a fixed number of
   cycles; minor words per dispatched instruction must stay under 1.
   What is left (about 0.3) is the memory port's result tuple per load
   and the committed scope-nesting list per fs_start.  Words are
   exact for a fixed binary, so this cannot flake.  A squash cycle
   dispatches nothing (fetch waits out the mispredict penalty), so
   each cycle's dispatch count is the growth of the ROB's next seq. *)
let test_dispatch_allocates_nothing () =
  let r = Reg.r in
  let alu op d a b = Instr.Alu (op, r d, r a, Instr.Imm b) in
  let code =
    [|
      Instr.Li (r 1, 1_000_000);
      Instr.Li (r 2, 12345);
      Instr.Fs_start 1;
      alu Instr.Mul 2 2 1103515245;
      alu Instr.Add 2 2 12345;
      alu Instr.Shr 3 2 16;
      alu Instr.And 3 3 1;
      Instr.Branch { cond = Instr.Eqz; src = r 3; target = 10 };
      Instr.Load { dst = r 4; base = Reg.zero; off = 1; flagged = true };
      Instr.Alu (Instr.Add, r 5, r 5, Instr.Reg (r 4));
      Instr.Fs_end 1;
      alu Instr.Sub 1 1 1;
      Instr.Branch { cond = Instr.Nez; src = r 1; target = 2 };
      Instr.Halt;
    |]
  in
  let mem = Array.make 16 3 in
  let port =
    Mem_port.make ~size:(Array.length mem)
      ~issue:(fun ~core:_ _ ~addr:_ ~now -> (now + 2, Fscope_obs.Event.L1_hit))
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value -> mem.(addr) <- value)
  in
  let core =
    Core.create ~id:0 ~code ~port ~scope_config:Fscope_core.Scope_unit.default_config
      ~exec_config:Fscope_cpu.Exec_config.default ()
  in
  let rob = Core.rob core in
  let dispatched = ref 0 in
  let step cycle =
    let before = Rob.next_seq rob in
    ignore (Core.step_complete_writes core ~cycle);
    ignore (Core.step_complete_reads core ~cycle);
    ignore (Core.step_pipeline core ~cycle);
    dispatched := !dispatched + max 0 (Rob.next_seq rob - before)
  in
  for cycle = 0 to 1999 do
    step cycle
  done;
  dispatched := 0;
  let mispredicts = (Core.stats core).Core.mispredicts in
  let w0 = Gc.minor_words () in
  for cycle = 2000 to 21999 do
    step cycle
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "still running" false (Core.halted core);
  Alcotest.(check bool) "mispredicts in the window" true
    ((Core.stats core).Core.mispredicts - mispredicts > 1000);
  let per = words /. float_of_int !dispatched in
  if per > 1.0 then
    Alcotest.failf "%.3f words per dispatched instruction (%.0f words, %d dispatched)" per
      words !dispatched

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
    Alcotest.test_case "rob dispatch seq and full" `Quick test_rob_dispatch_full;
    Alcotest.test_case "rob squash" `Quick test_rob_squash;
    Alcotest.test_case "rob iteration" `Quick test_rob_iteration_helpers;
    Alcotest.test_case "rob set_done releases parked consumers" `Quick test_rob_park_release;
    Alcotest.test_case "rob slot reuse resets every field" `Quick test_rob_slot_reuse;
    Alcotest.test_case "dispatch and squash allocate nothing" `Quick
      test_dispatch_allocates_nothing;
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
