type mem_model =
  | Hierarchy
  | Ideal

type sampling = {
  warmup : int;
  detailed : int;
  ff_instrs : int;
}

(* Many short windows beat few long ones at the same detailed duty
   cycle: the measured windows cover phases densely, and short
   fast-forward legs keep the sampled execution's contention dynamics
   (queue depths, spin iteration counts) from drifting far from the
   detailed ones between measurements. *)
let sampling_default = { warmup = 500; detailed = 1_000; ff_instrs = 20_000 }

let sampling_validate s =
  if s.detailed <= 0 then invalid_arg "Config.sampling: detailed window must be positive";
  if s.warmup < 0 then invalid_arg "Config.sampling: negative warmup";
  if s.ff_instrs <= 0 then
    invalid_arg "Config.sampling: fast-forward instruction count must be positive"

type t = {
  exec : Fscope_cpu.Exec_config.t;
  mem : Fscope_mem.Hierarchy.config;
  mem_model : mem_model;
  scope : Fscope_core.Scope_unit.config;
  max_cycles : int;
  sampling : sampling option;
}

let mem_model_name = function Hierarchy -> "hierarchy" | Ideal -> "ideal"

let mem_model_of_string = function
  | "hierarchy" -> Some Hierarchy
  | "ideal" -> Some Ideal
  | _ -> None

let default =
  {
    exec = Fscope_cpu.Exec_config.default;
    mem = Fscope_mem.Hierarchy.default_config;
    mem_model = Hierarchy;
    scope = Fscope_core.Scope_unit.default_config;
    max_cycles = 30_000_000;
    sampling = None;
  }

(* The one keyword constructor: start from [base] (the Table III
   machine when omitted) and override exactly the named knobs.  An
   omitted argument leaves the base's value untouched, so refinements
   compose: [v ~base:(v ~sfence:false ()) ~mem_latency:500 ()].
   [shard_domains] is accepted only as 1 and stored nowhere (see the
   interface). *)
let v ?(base = default) ?sfence ?speculation ?nop_fences ?spin_fastforward ?mem_model
    ?mem_latency ?rob_size ?fsb_entries ?fss_entries ?mt_entries ?max_cycles
    ?(shard_domains = 1) ?sampling () =
  if shard_domains <> 1 then invalid_arg "Config.v: shard_domains must be 1";
  let opt v dflt = Option.value v ~default:dflt in
  let sampling = opt sampling base.sampling in
  Option.iter sampling_validate sampling;
  {
    exec =
      {
        base.exec with
        in_window_speculation = opt speculation base.exec.in_window_speculation;
        nop_fences = opt nop_fences base.exec.nop_fences;
        spin_fastforward = opt spin_fastforward base.exec.spin_fastforward;
        rob_size = opt rob_size base.exec.rob_size;
      };
    mem = { base.mem with mem_latency = opt mem_latency base.mem.mem_latency };
    mem_model = opt mem_model base.mem_model;
    scope =
      {
        enabled = opt sfence base.scope.enabled;
        fsb_entries = opt fsb_entries base.scope.fsb_entries;
        fss_entries = opt fss_entries base.scope.fss_entries;
        mt_entries = opt mt_entries base.scope.mt_entries;
      };
    max_cycles = opt max_cycles base.max_cycles;
    sampling;
  }

let traditional t = v ~base:t ~sfence:false ()
let scoped t = v ~base:t ~sfence:true ()
