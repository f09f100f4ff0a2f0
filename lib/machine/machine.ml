module Core = Fscope_cpu.Core
module Hierarchy = Fscope_mem.Hierarchy
module Obs = Fscope_obs

type spin_ff = {
  sleeps : int;
  cycles_skipped : int;
  wakes : int;
}

type result = {
  cycles : int;
  timed_out : bool;
  core_stats : Core.stats array;
  core_cpi : Obs.Cpi.t array;
  mem : int array;
  cache : Hierarchy.stats;
  spin : spin_ff;
  sample_windows : (int * int) list;
  obs : Obs.Report.t option;
}

let fence_stall_cycles r =
  Array.fold_left (fun acc (s : Core.stats) -> acc + s.fence_stall_cycles) 0 r.core_stats

let total_active_cycles r =
  Array.fold_left (fun acc (s : Core.stats) -> acc + s.active_cycles) 0 r.core_stats

let fence_stall_fraction r =
  Fscope_util.Stats.ratio ~num:(fence_stall_cycles r) ~den:(total_active_cycles r)

let committed_instrs r =
  Array.fold_left (fun acc (s : Core.stats) -> acc + s.committed) 0 r.core_stats

let avg_rob_occupancy r =
  let sum =
    Array.fold_left (fun acc (s : Core.stats) -> acc + s.rob_occupancy_sum) 0 r.core_stats
  in
  Fscope_util.Stats.ratio ~num:sum ~den:(total_active_cycles r)

(* Snapshot every legacy stats record into the trace's metrics registry
   under stable names, so the registry subsumes the scattered
   [Core.stats] / [Hierarchy.stats] fields (and the summary sink's
   totals match the legacy accessors exactly). *)
let snapshot_stats trace r =
  let m = Obs.Trace.metrics trace in
  let set name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  Array.iteri
    (fun i (s : Core.stats) ->
      let set_c field v = set (Printf.sprintf "core%d/%s" i field) v in
      set_c "committed" s.committed;
      set_c "committed_mem" s.committed_mem;
      set_c "committed_fences" s.committed_fences;
      set_c "fence_stall_cycles" s.fence_stall_cycles;
      set_c "stall_rob_load" s.stall_rob_load;
      set_c "stall_rob_store" s.stall_rob_store;
      set_c "stall_sb" s.stall_sb;
      set_c "sb_stall_cycles" s.sb_stall_cycles;
      set_c "branches" s.branches;
      set_c "mispredicts" s.mispredicts;
      set_c "loads" s.loads;
      set_c "stores" s.stores;
      set_c "cas_ops" s.cas_ops;
      set_c "rob_occupancy_sum" s.rob_occupancy_sum;
      set_c "active_cycles" s.active_cycles)
    r.core_stats;
  Array.iteri
    (fun i cpi ->
      List.iter
        (fun leaf ->
          set (Printf.sprintf "core%d/cpi/%s" i (Obs.Cpi.name leaf)) (Obs.Cpi.get cpi leaf))
        Obs.Cpi.leaves)
    r.core_cpi;
  List.iter
    (fun leaf ->
      let total =
        Array.fold_left (fun acc cpi -> acc + Obs.Cpi.get cpi leaf) 0 r.core_cpi
      in
      set (Printf.sprintf "total/cpi/%s" (Obs.Cpi.name leaf)) total)
    Obs.Cpi.leaves;
  set "total/fence_stall_cycles" (fence_stall_cycles r);
  set "total/active_cycles" (total_active_cycles r);
  set "total/committed" (committed_instrs r);
  set "mem/l1_hits" r.cache.Hierarchy.l1_hits;
  set "mem/l1_misses" r.cache.Hierarchy.l1_misses;
  set "mem/l2_hits" r.cache.Hierarchy.l2_hits;
  set "mem/l2_misses" r.cache.Hierarchy.l2_misses;
  set "mem/invalidations" r.cache.Hierarchy.invalidations;
  set "mem/c2c_transfers" r.cache.Hierarchy.c2c_transfers;
  set "engine/spin_ff_sleeps" r.spin.sleeps;
  set "engine/spin_ff_cycles_skipped" r.spin.cycles_skipped;
  set "engine/spin_ff_wakes" r.spin.wakes;
  set "machine/cycles" r.cycles

let finish ~obs (raw : Sim_engine.raw) =
  let result =
    {
      cycles = raw.Sim_engine.cycles;
      timed_out = raw.Sim_engine.timed_out;
      core_stats = Array.map Core.stats raw.Sim_engine.cores;
      core_cpi = Array.map Core.cpi raw.Sim_engine.cores;
      mem = raw.Sim_engine.mem;
      cache = Hierarchy.stats raw.Sim_engine.hierarchy;
      spin =
        {
          sleeps = raw.Sim_engine.spin.Sim_engine.sleeps;
          cycles_skipped = raw.Sim_engine.spin.Sim_engine.cycles_skipped;
          wakes = raw.Sim_engine.spin.Sim_engine.wakes;
        };
      sample_windows = raw.Sim_engine.windows;
      obs = None;
    }
  in
  if Obs.Trace.on obs then begin
    snapshot_stats obs result;
    {
      result with
      obs =
        Some
          (Obs.Report.of_trace ~cycles:result.cycles ~timed_out:result.timed_out obs);
    }
  end
  else result

let run ?(obs = Obs.Trace.null) ?checkpoint ?resume (config : Config.t) program =
  finish ~obs (Sim_engine.run ~obs ?checkpoint ?resume config program)

let run_reference ?(obs = Obs.Trace.null) (config : Config.t) program =
  finish ~obs (Sim_engine.run_naive ~obs config program)
