(* Whole-machine checkpoints: the complete simulation state at the top
   of one engine cycle, serialized as a single JSON document.

   A checkpoint never stores instructions or configuration — both are
   rebuilt by the caller (the CLI re-derives them from the workload
   registry) and validated against a digest of the machine-defining
   parts (pipeline / memory / scope configs plus the full program
   image).  Wall-clock knobs — [max_cycles], [sampling] — are
   deliberately outside the digest: resuming with a longer cycle
   budget is the point of checkpointing.

   The per-core payloads are produced by {!Fscope_cpu.Core.snapshot};
   [wake] is the engine's event-horizon array, captured verbatim so
   pre-charged stall spans of frozen cores are not re-charged on
   resume (see Sim_engine). *)

module Json = Fscope_util.Json
module Program = Fscope_isa.Program

type t = {
  cycle : int;
  digest : string;
  wake : int array;
  cores : Json.t array;
  mem : int array;
  hierarchy : Json.t;
}

let digest (config : Config.t) (program : Program.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (config.Config.exec, config.Config.mem, config.Config.mem_model,
           config.Config.scope, program)
          []))

(* The compact sibling ("v1z") applies {!Json.pack_arrays} to the whole
   document: memory images, ARFs, rename maps, predictor tables and
   cache arrays are mostly zeros at production core counts, and the
   shared zero-run elision dedups them all through one transform.  The
   schema string changes with the representation so a reader that
   predates packing fails loudly instead of misparsing; {!of_json}
   accepts both and unpacks before field extraction, so the two forms
   are interchangeable everywhere downstream. *)
let schema_plain = "fscope-checkpoint/v1"
let schema_compact = "fscope-checkpoint/v1z"

let to_json ?(compact = false) t =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str (if compact then schema_compact else schema_plain));
        ("cycle", Json.Int t.cycle);
        ("digest", Json.Str t.digest);
        ("wake", Json.of_int_array t.wake);
        ("cores", Json.Arr (Array.to_list t.cores));
        ("mem", Json.of_int_array t.mem);
        ("hierarchy", t.hierarchy);
      ]
  in
  if compact then Json.pack_arrays doc else doc

let of_json j =
  let j =
    match Json.get "schema" j with
    | Json.Str s when String.equal s schema_plain -> j
    | Json.Str s when String.equal s schema_compact -> Json.unpack_arrays j
    | _ -> failwith "checkpoint: unknown schema"
  in
  {
    cycle = Json.int_exn (Json.get "cycle" j);
    digest = Json.str_exn (Json.get "digest" j);
    wake = Json.int_array_exn (Json.get "wake" j);
    cores = Array.of_list (Json.list_exn (Json.get "cores" j));
    mem = Json.int_array_exn (Json.get "mem" j);
    hierarchy = Json.get "hierarchy" j;
  }

(* Plain checkpoints pretty-print (they are the readable, diffable
   form); the compact sibling is minified on top of the array
   packing. *)
let save ?(compact = false) t ~file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let doc = to_json ~compact t in
      output_string oc (if compact then Json.render doc else Json.render_pretty doc);
      output_char oc '\n')

let load ~file =
  match Json.of_file file with
  | j -> of_json j
  | exception Sys_error msg -> failwith (Printf.sprintf "cannot read checkpoint: %s" msg)
  | exception Json.Parse_error msg ->
    failwith (Printf.sprintf "malformed checkpoint %s: %s" file msg)

(* Refuse to restore into a machine the checkpoint was not taken
   from. *)
let validate t (config : Config.t) program =
  if not (String.equal t.digest (digest config program)) then
    failwith
      "checkpoint: config/program digest mismatch (different workload or machine \
       parameters)"
