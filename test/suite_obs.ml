(* Tests for ft_obs: trace determinism across worker counts, exporter
   round-trips, report rendering, and — the load-bearing one — that the
   live counters are recomputable from a wall-clock trace. *)

module Trace = Ft_obs.Trace
module Event = Ft_obs.Event
module Export = Ft_obs.Export
module Report = Ft_obs.Report
module Json = Ft_obs.Json
module Engine = Ft_engine.Engine
module Counters = Ft_obs.Counters
module Tuner = Funcytuner.Tuner

let swim = Option.get (Ft_suite.Suite.find "swim")
let platform = Ft_prog.Platform.Broadwell

(* One full tune (profile -> collect -> prune -> search) on a small pool:
   every phase and event kind the trace schema knows about gets
   exercised. *)
let run_cfr ?policy ?trace ~jobs ~pool () =
  let engine = Engine.create ~jobs ?policy ?trace () in
  let session =
    Tuner.make_session ~pool_size:pool ~engine ~platform ~program:swim
      ~input:(Ft_suite.Suite.tuning_input platform swim)
      ~seed:42 ()
  in
  (Tuner.run_cfr session, engine)

let faulty_policy =
  {
    Engine.default_policy with
    Engine.faults = Some (Ft_fault.Fault.make ~seed:1 ~rate:0.4 ());
    timeout_s = 60.0;
    repeats = 3;
  }

let jsonl ?policy ~clock ~jobs ~pool () =
  let trace = Trace.create ~clock () in
  let result, _ = run_cfr ?policy ~trace ~jobs ~pool () in
  (result, Export.jsonl_string trace, trace)

(* --- determinism across worker counts --------------------------------- *)

let test_results_jobs_independent () =
  (* The Makefile smoke check, in-process: the whole tune result is
     bit-identical at --jobs 1 and --jobs 4. *)
  let r1, _ = run_cfr ~jobs:1 ~pool:24 () in
  let r4, _ = run_cfr ~jobs:4 ~pool:24 () in
  Alcotest.(check bool) "results identical across jobs" true (r1 = r4)

let test_logical_trace_jobs_independent () =
  let r1, bytes1, _ = jsonl ~clock:Trace.Logical ~jobs:1 ~pool:24 () in
  let r4, bytes4, _ = jsonl ~clock:Trace.Logical ~jobs:4 ~pool:24 () in
  Alcotest.(check bool) "results identical" true (r1 = r4);
  Alcotest.(check string) "logical trace bytes identical" bytes1 bytes4

let test_trace_off_invariance () =
  (* Attaching a trace must not change what the search computes. *)
  let bare, _ = run_cfr ~jobs:1 ~pool:24 () in
  let traced, _ =
    run_cfr ~trace:(Trace.create ~clock:Trace.Wall ()) ~jobs:1 ~pool:24 ()
  in
  Alcotest.(check bool) "tracing is observational only" true (bare = traced)

(* --- counter derivability ---------------------------------------------- *)

let check_counters ~msg live derived =
  Alcotest.check Test_helpers.counters msg live derived

let derive_of_trace trace =
  Report.derive (List.map (fun s -> s.Trace.event) (Trace.events trace))

let test_counters_derivable_fault_free () =
  let trace = Trace.create ~clock:Trace.Wall () in
  let _, engine = run_cfr ~trace ~jobs:1 ~pool:24 () in
  check_counters ~msg:"fault-free" (Engine.counters engine)
    (derive_of_trace trace)

let test_counters_derivable_faulty () =
  (* A fault rate high enough to exercise every counter: ICEs, crashes,
     wrong answers, timeouts, retries, outliers, quarantine adds/hits. *)
  let trace = Trace.create ~clock:Trace.Wall () in
  let _, engine =
    run_cfr ~policy:faulty_policy ~trace ~jobs:1 ~pool:40 ()
  in
  let s = Engine.counters engine in
  Alcotest.(check bool) "faults actually injected" true
    (Counters.faults s > 0);
  check_counters ~msg:"faulty" s (derive_of_trace trace)

(* --- exporters and report ---------------------------------------------- *)

let with_temp_file content f =
  let path = Filename.temp_file "ft_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc content);
      f path)

let test_jsonl_roundtrip () =
  let _, bytes, trace = jsonl ~clock:Trace.Wall ~jobs:1 ~pool:12 () in
  with_temp_file bytes @@ fun path ->
  match Report.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok t ->
      Alcotest.(check string) "clock" "wall" t.Report.clock;
      Alcotest.(check int) "every event survives" (Trace.length trace)
        (List.length t.Report.entries)

let test_jsonl_roundtrip_logical () =
  let _, bytes, trace = jsonl ~clock:Trace.Logical ~jobs:1 ~pool:12 () in
  with_temp_file bytes @@ fun path ->
  match Report.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok t ->
      Alcotest.(check string) "clock" "logical" t.Report.clock;
      Alcotest.(check int) "every event survives" (Trace.length trace)
        (List.length t.Report.entries)

let test_load_rejects_garbage () =
  (let r = with_temp_file "not a trace\n" (fun path -> Report.load path) in
   match r with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage accepted");
  let truncated =
    "{\"trace\":\"funcytuner/1\",\"clock\":\"wall\",\"events\":5}\n"
  in
  match with_temp_file truncated (fun path -> Report.load path) with
  | Error msg ->
      Alcotest.(check bool) "mentions the count mismatch" true
        (Test_helpers.contains msg "5")
  | Ok _ -> Alcotest.fail "truncated trace accepted"

let test_chrome_export_parses () =
  let trace = Trace.create ~clock:Trace.Wall () in
  let _ = run_cfr ~trace ~jobs:1 ~pool:12 () in
  match Json.of_string (Export.chrome_string trace) with
  | Error msg -> Alcotest.fail ("chrome export is not JSON: " ^ msg)
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          Alcotest.(check int) "one trace_event per recorded event"
            (Trace.length trace) (List.length events)
      | _ -> Alcotest.fail "missing traceEvents array")

(* --- the streamed exporter ------------------------------------------------ *)

let test_logical_export_oracle () =
  (* The streamed JSONL bytes equal the line-at-a-time rendering, on a
     fault-free run at jobs 1 and 4 and on a faulty one. *)
  List.iter
    (fun (tag, policy, jobs) ->
      let _, bytes, trace = jsonl ?policy ~clock:Trace.Logical ~jobs ~pool:24 () in
      Alcotest.(check string)
        (tag ^ ": streamed bytes equal the reference rendering")
        (Test_helpers.logical_jsonl_reference trace)
        bytes)
    [
      ("jobs 1", None, 1);
      ("jobs 4", None, 4);
      ("faulty jobs 1", Some faulty_policy, 1);
    ]

let test_wall_export_oracle () =
  List.iter
    (fun (tag, policy, jobs) ->
      let trace = Trace.create ~clock:Trace.Wall () in
      let _, engine = run_cfr ?policy ~trace ~jobs ~pool:24 () in
      Test_helpers.check_wall_export ~msg:tag ~live:(Engine.counters engine)
        trace)
    [ ("jobs 4", None, 4); ("faulty jobs 1", Some faulty_policy, 1) ]

let test_wall_ts_format () =
  List.iter
    (fun (us, expected) ->
      let buf = Buffer.create 16 in
      Export.add_wall_ts buf us;
      let printed = Buffer.contents buf in
      Alcotest.(check string) (Printf.sprintf "%d us" us) expected printed;
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "%d us reads back as seconds" us)
        (Some (float_of_int us /. 1e6))
        (match Json.of_string printed with
        | Ok json -> Json.to_float json
        | Error _ -> None))
    [
      (0, "0.000000");
      (7, "0.000007");
      (999_999, "0.999999");
      (1_000_000, "1.000000");
      (42_000_000, "42.000000");
      (1_234_567_890, "1234.567890");
      (86_400_000_001, "86400.000001");
    ]

let test_timer_is_monotonic_duration () =
  (* [Trace.time] measures on the monotonic clock: the recorded duration
     of a busy loop lies inside a [Clock.now] bracket of the same call
     (up to the whole-nanosecond rounding of the timer). *)
  let trace = Trace.create ~clock:Trace.Wall () in
  let spin () =
    let acc = ref 1 in
    for i = 1 to 2_000_000 do
      acc := (!acc * 31) + i
    done;
    Sys.opaque_identity !acc
  in
  let before = Ft_util.Clock.now () in
  ignore (Trace.time trace "busy" spin);
  let bracket = Ft_util.Clock.now () -. before in
  match List.map (fun st -> st.Trace.event) (Trace.events trace) with
  | [ Event.Timer { name = "busy"; seconds } ] ->
      Alcotest.(check bool) "duration is positive" true (seconds > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "duration %.9f s within the bracket %.9f s" seconds
           bracket)
        true
        (seconds <= bracket +. 1e-9)
  | _ -> Alcotest.fail "expected exactly one busy timer event"

let test_report_sections () =
  let _, bytes, _ =
    jsonl ~policy:faulty_policy ~clock:Trace.Wall ~jobs:1 ~pool:24 ()
  in
  with_temp_file bytes @@ fun path ->
  match Report.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok t ->
      let rendered = Report.render t in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("section: " ^ needle) true
            (Test_helpers.contains rendered needle))
        [
          "Per-phase breakdown";
          "Cache hit-rate over time";
          "Convergence";
          "Faults and recovery";
          "Per-loop focused pools";
          "Derived engine counters";
          "search";
          "collect";
        ]

let suite =
  ( "obs",
    [
      Alcotest.test_case "results independent of --jobs" `Quick
        test_results_jobs_independent;
      Alcotest.test_case "logical trace bytes independent of --jobs" `Quick
        test_logical_trace_jobs_independent;
      Alcotest.test_case "tracing changes no result" `Quick
        test_trace_off_invariance;
      Alcotest.test_case "counters derivable (fault-free)" `Quick
        test_counters_derivable_fault_free;
      Alcotest.test_case "counters derivable (faulty)" `Quick
        test_counters_derivable_faulty;
      Alcotest.test_case "jsonl round-trip (wall)" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "jsonl round-trip (logical)" `Quick
        test_jsonl_roundtrip_logical;
      Alcotest.test_case "malformed traces rejected" `Quick
        test_load_rejects_garbage;
      Alcotest.test_case "chrome export parses" `Quick
        test_chrome_export_parses;
      Alcotest.test_case "report renders every section" `Quick
        test_report_sections;
      Alcotest.test_case "logical export equals reference rendering" `Quick
        test_logical_export_oracle;
      Alcotest.test_case "wall export loads back whole" `Quick
        test_wall_export_oracle;
      Alcotest.test_case "wall ts format edge cases" `Quick
        test_wall_ts_format;
      Alcotest.test_case "timer measures on the monotonic clock" `Quick
        test_timer_is_monotonic_duration;
    ] )
