(* Trend-differ tests: the JSON layer round-trips, every committed
   baseline artefact loads under its schema, self-diff is clean, an
   injected regression trips the gate, mismatched quick flags turn
   the gate off, and older or malformed documents fail to load. *)

module Json = Fscope_util.Json
module Trend = Fscope_experiments.Trend
module Server = Fscope_experiments.Server

(* ------------------------------------------------------------------ *)
(* Locating the committed baselines.  dune copies the source tree into
   _build/default, so walking up from the test's cwd finds the
   bench/baseline directory either in the sandbox or in the source
   checkout. *)

let rec find_dir dir candidate =
  let path = Filename.concat dir candidate in
  if Sys.file_exists path && Sys.is_directory path then Some path
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_dir parent candidate

let baseline_dir () =
  match find_dir (Sys.getcwd ()) (Filename.concat "bench" "baseline") with
  | Some d -> d
  | None -> Alcotest.fail "bench/baseline not found above the test cwd"

let baseline_files () =
  let dir = baseline_dir () in
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)
(* JSON layer                                                          *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "[1,-2,3.5,1e3]";
      "{\"a\":{\"b\":[true,false,null]},\"s\":\"he\\\"llo\\n\\u00e9\"}";
      "{\"big\":123456789012345,\"neg\":-0.125}";
      "[]";
      "{}";
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse s in
      Alcotest.(check bool)
        (Printf.sprintf "parse(render(%s)) stable" s)
        true
        (Json.parse (Json.render v) = v))
    cases;
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad))
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2" ]

(* Floats print in their shortest round-tripping form: a value rounded
   to a few decimals prints as written, and an integral float past
   1e15 keeps a ".0" so it does not read back as an integer. *)
let test_json_float_roundtrip () =
  List.iter
    (fun (x, text) ->
      Alcotest.(check string) (Printf.sprintf "%h renders" x) text (Json.render (Json.Float x));
      Alcotest.(check bool) (text ^ " parses back") true (Json.parse text = Json.Float x))
    [ (0.1, "0.1"); (12.47, "12.47"); (1234567890123456.0, "1234567890123456.0") ];
  Alcotest.(check string) "fixed rounds like %.2f" "12.47" (Json.render (Json.fixed 2 12.4699))

let test_committed_artefacts_roundtrip () =
  let files = baseline_files () in
  Alcotest.(check int) "committed baselines present (engine, profile, server)" 3
    (List.length files);
  List.iter
    (fun file ->
      let v = Json.of_file file in
      Alcotest.(check bool)
        (Printf.sprintf "%s JSON round-trips" (Filename.basename file))
        true
        (Json.parse (Json.render v) = v);
      let a = Trend.load ~file v in
      Alcotest.(check bool)
        (Printf.sprintf "%s loads points" (Filename.basename file))
        true
        (a.Trend.a_points <> []))
    files

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)

let load_server_baseline () =
  let file =
    Filename.concat (baseline_dir ()) "BENCH_server.json"
  in
  (file, Json.of_file file)

let test_self_diff_clean () =
  List.iter
    (fun file ->
      let a = Trend.load_file file in
      let v = Trend.diff ~baseline:a ~current:a () in
      Alcotest.(check bool)
        (Printf.sprintf "%s self-diff comparable" (Filename.basename file))
        true v.Trend.v_comparable;
      Alcotest.(check int)
        (Printf.sprintf "%s self-diff regression-free" (Filename.basename file))
        0
        (List.length v.Trend.v_regressions);
      Alcotest.(check bool)
        (Printf.sprintf "%s self-diff compared something" (Filename.basename file))
        true
        (v.Trend.v_deltas <> [] && v.Trend.v_missing = [] && v.Trend.v_added = []))
    (baseline_files ())

(* Rewrite one field of the first row of a parsed server artefact. *)
let tamper_first_row field f j =
  let map_obj g = function Json.Obj fields -> Json.Obj (g fields) | v -> v in
  map_obj
    (List.map (fun (k, v) ->
         if k <> "rows" then (k, v)
         else
           match v with
           | Json.Arr (row0 :: rest) ->
             ( k,
               Json.Arr
                 (map_obj
                    (List.map (fun (rk, rv) -> if rk = field then (rk, f rv) else (rk, rv)))
                    row0
                 :: rest) )
           | v -> (k, v)))
    j

let double = function
  | Json.Int n -> Json.Int (2 * n)
  | Json.Float x -> Json.Float (2.0 *. x)
  | v -> v

let test_injected_regression_gates () =
  let file, j = load_server_baseline () in
  let baseline = Trend.load ~file j in
  let current = Trend.load ~file:"tampered" (tamper_first_row "sim_cycles" double j) in
  let v = Trend.diff ~threshold:5.0 ~baseline ~current () in
  Alcotest.(check bool) "doubled sim_cycles trips the gate" true
    (v.Trend.v_regressions <> []);
  Alcotest.(check bool) "the regression names the tampered metric" true
    (List.exists
       (fun (d : Trend.delta) -> d.Trend.d_metric = "sim_cycles" && d.Trend.d_worse_pct > 99.0)
       v.Trend.v_regressions)

let test_gauge_metrics_never_gate () =
  let file, j = load_server_baseline () in
  let baseline = Trend.load ~file j in
  let tampered =
    tamper_first_row "gauge"
      (function
        | Json.Obj fields ->
          Json.Obj (List.map (fun (k, v) -> if k = "p99" then (k, double v) else (k, v)) fields)
        | v -> v)
      j
  in
  let current = Trend.load ~file:"tampered" tampered in
  let v = Trend.diff ~threshold:5.0 ~baseline ~current () in
  Alcotest.(check (list string)) "gauge summaries are context, not regressions" []
    (List.map (fun (d : Trend.delta) -> d.Trend.d_metric) v.Trend.v_regressions);
  Alcotest.(check bool) "the gauge delta is still reported" true
    (List.exists
       (fun (d : Trend.delta) ->
         d.Trend.d_gate = Trend.Gate_never && d.Trend.d_worse_pct > 99.0)
       v.Trend.v_deltas)

let test_quick_mismatch_disarms_gate () =
  let file, j = load_server_baseline () in
  let baseline = Trend.load ~file j in
  let full =
    match tamper_first_row "sim_cycles" double j with
    | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = "quick" then (k, Json.Bool false) else (k, v)) fields)
    | v -> v
  in
  let current = Trend.load ~file:"full-size" full in
  let v = Trend.diff ~threshold:5.0 ~baseline ~current () in
  Alcotest.(check bool) "quick-vs-full is not comparable" false v.Trend.v_comparable;
  Alcotest.(check int) "and can never regress" 0 (List.length v.Trend.v_regressions);
  Alcotest.(check bool) "deltas still rendered for information" true
    (v.Trend.v_deltas <> [])

let test_wall_threshold_arms_wall_metrics () =
  let file =
    Filename.concat (baseline_dir ()) "BENCH_engine.json"
  in
  let j = Json.of_file file in
  let baseline = Trend.load ~file j in
  let tampered =
    match j with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "engine_total_seconds" then (k, double v) else (k, v))
           fields)
    | v -> v
  in
  let current = Trend.load ~file:"slow" tampered in
  let off = Trend.diff ~baseline ~current () in
  Alcotest.(check int) "wall metrics advisory by default" 0
    (List.length off.Trend.v_regressions);
  let on = Trend.diff ~wall_threshold:50.0 ~baseline ~current () in
  Alcotest.(check bool) "armed by --wall-threshold" true
    (on.Trend.v_regressions <> [])

let test_unknown_schema_rejected () =
  (match Trend.load ~file:"x" (Json.parse "{\"schema\":\"fence-scoping/unheard-of/v9\"}") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown schema accepted");
  match Trend.load ~file:"x" (Json.parse "{\"rows\":[]}") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "schema-less artefact accepted"

let rejected what j =
  match Trend.load ~file:"x" j with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "loaded %s" what

(* Only the current generation loads; an older one is refused with a
   message naming the expected version. *)
let test_older_schema_rejected () =
  let _, j = load_server_baseline () in
  let v4 =
    match j with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "schema" then (k, Json.Str "fence-scoping/bench-server/v4") else (k, v))
           fields)
    | v -> v
  in
  match Trend.load ~file:"x" v4 with
  | exception Failure msg ->
    Alcotest.(check bool) "names the expected version" true
      (List.mem Trend.server_schema (String.split_on_char '"' msg))
  | _ -> Alcotest.fail "bench-server/v4 accepted"

(* A point list that is missing or not an array, or a CPI leaf that is
   not a number, is a load error rather than an empty or zero reading. *)
let test_malformed_artefacts_rejected () =
  rejected "non-array rows"
    (Json.parse
       (Printf.sprintf "{\"schema\":\"%s\",\"rows\":{\"a\":1}}" Trend.server_schema));
  rejected "a server document without rows"
    (Trend.envelope ~schema:Trend.server_schema ~quick:true ~jobs:1 []);
  let profile cpi_leaf =
    Trend.envelope ~schema:Trend.profile_schema ~quick:true ~jobs:1
      [
        ( "profiles",
          Json.Arr
            [
              Json.Obj
                [
                  ("label", Json.Str "dekker");
                  ("config", Json.Str "sfence");
                  ("cycles", Json.Int 100);
                  ("active_cycles", Json.Int 100);
                  ("cpi", Json.Obj [ ("commit", Json.Int 90); ("fence_wait", cpi_leaf) ]);
                ];
            ] );
      ]
  in
  ignore (Trend.load ~file:"x" (profile (Json.Int 10)));
  rejected "a non-numeric cpi leaf" (profile (Json.Str "10"))

(* A server document built by the writer from hand-made rows loads
   back with every row keyed and its metrics intact. *)
let test_server_writer_loads () =
  let row workload config cycles =
    {
      Server.sv_workload = workload;
      sv_config = config;
      sv_cycles = cycles;
      sv_requests = 8;
      sv_rpk = 8000.0 /. float_of_int cycles;
      sv_fence_share = 12.47;
      sv_stall_episodes = 3;
      sv_stall_cycles = 300;
      sv_stall_mean = 100.0;
      sv_stall_p50 = 64;
      sv_stall_p90 = 128;
      sv_stall_p99 = 128;
      sv_stall_max = 128;
      sv_lat_samples = 8;
      sv_lat_p50 = 150;
      sv_lat_p90 = 300;
      sv_lat_p99 = 350;
      sv_lat_max = 350;
      sv_gauge = None;
      sv_sampled = false;
      sv_lat_sampled = false;
    }
  in
  let rows = [ row "server-mpmc" "T" 4557; row "server-mpmc" "S" 4000 ] in
  let doc = Server.to_json ~quick:true ~jobs:1 rows in
  let a = Trend.load ~file:"hand-made" (Json.parse (Json.render_pretty doc)) in
  Alcotest.(check (list string)) "one point per row"
    [ "server/server-mpmc/T"; "server/server-mpmc/S" ]
    (List.map (fun p -> p.Trend.p_key) a.Trend.a_points);
  let metric key name =
    let p = List.find (fun p -> p.Trend.p_key = key) a.Trend.a_points in
    (List.find (fun m -> m.Trend.m_name = name) p.Trend.p_metrics).Trend.m_value
  in
  Alcotest.(check (float 0.0)) "sim_cycles" 4557.0 (metric "server/server-mpmc/T" "sim_cycles");
  Alcotest.(check (float 0.0)) "requests_per_kcycle rounded to 4 places" 2.0
    (metric "server/server-mpmc/S" "requests_per_kcycle");
  Alcotest.(check (float 0.0)) "fence_share_pct" 12.47
    (metric "server/server-mpmc/T" "fence_share_pct")

let tests =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float round-trip" `Quick test_json_float_roundtrip;
    Alcotest.test_case "committed artefacts round-trip" `Quick
      test_committed_artefacts_roundtrip;
    Alcotest.test_case "self-diff clean" `Quick test_self_diff_clean;
    Alcotest.test_case "injected regression gates" `Quick test_injected_regression_gates;
    Alcotest.test_case "gauge metrics never gate" `Quick test_gauge_metrics_never_gate;
    Alcotest.test_case "quick mismatch disarms gate" `Quick
      test_quick_mismatch_disarms_gate;
    Alcotest.test_case "wall threshold arms wall metrics" `Quick
      test_wall_threshold_arms_wall_metrics;
    Alcotest.test_case "unknown schema rejected" `Quick test_unknown_schema_rejected;
    Alcotest.test_case "older schema rejected" `Quick test_older_schema_rejected;
    Alcotest.test_case "malformed artefacts rejected" `Quick
      test_malformed_artefacts_rejected;
    Alcotest.test_case "server writer output loads" `Quick test_server_writer_loads;
  ]
