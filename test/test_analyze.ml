(* End-to-end tests of the offline trace analyzer: an engine run's JSONL
   trace reads back completely, the recomputed aggregates match the
   trailer byte for byte, spans from an enabled profiler land in the
   report, a trailerless (crashed) trace still analyzes, and the
   Prometheus exposition renders what the metrics hold. *)

let star_scenario ?(trace = Trace.null) ?(prof = Prof.null) () =
  let spec =
    System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.star 3)
  in
  {
    (Scenario.default ~spec
       ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
    with
    Scenario.duration = Scenario.sec 10;
    trace;
    prof;
    seed = 23;
  }

(* deterministic profiler clock: strictly increasing, 1 ms per read *)
let fake_prof sink =
  let clock = ref 0. in
  Prof.make
    ~now:(fun () ->
      clock := !clock +. 0.001;
      !clock)
    ~sink ()

(* run the engine exactly as [clocksync run --trace --prof] does: JSONL
   sink teed with a Metrics aggregate, summary trailer appended *)
let write_trace ?(with_prof = false) ?(with_trailer = true) path =
  let m = Metrics.create () in
  let oc = open_out path in
  let sink = Trace.tee (Trace.jsonl oc) (Metrics.sink m) in
  let prof = if with_prof then fake_prof sink else Prof.null in
  let r = Engine.run (star_scenario ~trace:sink ~prof ()) in
  if with_trailer then begin
    output_string oc (Json_out.to_line (Metrics.summary_json m));
    output_char oc '\n'
  end;
  close_out oc;
  (r, m)

let contains hay sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1))
  in
  go 0

let test_engine_trace_round_trip () =
  let path = Filename.temp_file "analyze" ".jsonl" in
  let r, _ = write_trace path in
  let a =
    match Analysis.read path with
    | Ok a -> a
    | Error m -> Alcotest.failf "read: %s" m
  in
  Sys.remove path;
  Alcotest.(check int) "every line parses" 0 (List.length a.Analysis.bad);
  Alcotest.(check bool) "not truncated" false a.Analysis.truncated;
  Alcotest.(check bool) "trailer present" true (a.Analysis.trailer <> None);
  (match Analysis.summary_matches a with
  | Ok () -> ()
  | Error m -> Alcotest.failf "trailer mismatch: %s" m);
  (* the re-aggregation equals the engine's own numbers *)
  Alcotest.(check int) "sends" r.Engine.messages_sent
    (Metrics.sends a.Analysis.metrics);
  let opt_r = List.assoc "optimal" r.Engine.per_algo in
  let opt_a = Metrics.algo_stats a.Analysis.metrics "optimal" in
  Alcotest.(check int) "optimal samples" opt_r.Engine.samples
    opt_a.Metrics.samples;
  Alcotest.(check bool) "estimates seen" true (Analysis.estimate_samples a > 0);
  let report = Analysis.render a in
  List.iter
    (fun section ->
      Alcotest.(check bool) section true (contains report section))
    [
      "summary trailer matches recomputed aggregates exactly";
      "counters:";
      "convergence timeline";
      "estimate accuracy";
      "optimal";
    ]

let span_count m op =
  match Metrics.span_hist m op with Some h -> Histogram.count h | None -> 0

(* every insert into and every kill in the structure named [prefix] is
   timed exactly once *)
let check_oracle_spans m prefix =
  Alcotest.(check int)
    (prefix ^ "_insert spans = oracle_inserts")
    (Metrics.oracle_inserts m)
    (span_count m (prefix ^ "_insert"));
  Alcotest.(check int)
    (prefix ^ "_kill spans = oracle_gcs")
    (Metrics.oracle_gcs m)
    (span_count m (prefix ^ "_kill"))

let test_profiled_trace_has_spans () =
  let path = Filename.temp_file "analyze" ".jsonl" in
  let _, m = write_trace ~with_prof:true path in
  Alcotest.(check bool) "live metrics saw spans" true
    (Metrics.span_names m <> []);
  let a =
    match Analysis.read path with
    | Ok a -> a
    | Error m -> Alcotest.failf "read: %s" m
  in
  Sys.remove path;
  Alcotest.(check int) "every line parses" 0 (List.length a.Analysis.bad);
  (match Analysis.summary_matches a with
  | Ok () -> ()
  | Error m -> Alcotest.failf "trailer mismatch: %s" m);
  (* the offline replay reconstructs the same per-op histograms *)
  Alcotest.(check (list string))
    "same ops offline" (Metrics.span_names m)
    (Metrics.span_names a.Analysis.metrics);
  List.iter
    (fun op ->
      match (Metrics.span_hist m op, Metrics.span_hist a.Analysis.metrics op)
      with
      | Some live, Some offline ->
        Alcotest.(check int) (op ^ " count") (Histogram.count live)
          (Histogram.count offline);
        Alcotest.(check bool) (op ^ " sum bit-identical") true
          (Int64.equal
             (Int64.bits_of_float (Histogram.sum live))
             (Int64.bits_of_float (Histogram.sum offline)))
      | _ -> Alcotest.failf "histogram for %s missing" op)
    (Metrics.span_names m);
  check_oracle_spans m "agdp";
  Alcotest.(check bool) "report has profile section" true
    (contains (Analysis.render a) "hot-path profile")

let test_validated_run_times_both () =
  (* under validate_oracle the Floyd–Warshall shadow mirrors every AGDP
     mutation, and each side gets its own span *)
  let spec =
    System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.star 3)
  in
  let m = Metrics.create () in
  let sink = Metrics.sink m in
  let _ =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
        with
        Scenario.duration = Scenario.sec 6;
        validate_oracle = true;
        trace = sink;
        prof = fake_prof sink;
        seed = 17;
      }
  in
  check_oracle_spans m "agdp";
  check_oracle_spans m "fw";
  Alcotest.(check (pair int int)) "inserts, kills" (145, 133)
    (Metrics.oracle_inserts m, Metrics.oracle_gcs m)

let test_trailerless_crash_trace () =
  let path = Filename.temp_file "analyze" ".jsonl" in
  let _ = write_trace ~with_trailer:false path in
  (* simulate the kill -9: chop the last line mid-byte *)
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let cut = String.length text - 7 in
  let oc = open_out_bin path in
  output_string oc (String.sub text 0 cut);
  close_out oc;
  let a =
    match Analysis.read path with
    | Ok a -> a
    | Error m -> Alcotest.failf "read: %s" m
  in
  Sys.remove path;
  Alcotest.(check int) "no bad lines" 0 (List.length a.Analysis.bad);
  Alcotest.(check bool) "truncation detected" true a.Analysis.truncated;
  Alcotest.(check bool) "no trailer" true (a.Analysis.trailer = None);
  (match Analysis.summary_matches a with
  | Ok () -> ()
  | Error m -> Alcotest.failf "trailerless must not mismatch: %s" m);
  Alcotest.(check bool) "events recovered" true
    (List.length a.Analysis.events > 0)

let test_missing_file () =
  match Analysis.read "/nonexistent/definitely/not/here.jsonl" with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error _ -> ()

let test_expo_render () =
  let m = Metrics.create () in
  List.iter (Metrics.on_event m)
    [
      Trace.Send { t = 1.; src = 0; dst = 1; msg = 1; events = 2; bytes = 40 };
      Trace.Estimate
        { t = 2.; node = 1; algo = "optimal"; width = 0.5; contained = true };
      Trace.Span { name = "agdp_insert"; dur = 1e-5 };
      Trace.Span { name = "agdp_insert"; dur = 2e-5 };
    ];
  let text = Expo.render m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains text needle))
    [
      "# TYPE csync_sends_total counter";
      "csync_sends_total 1";
      "{algo=\"optimal\"}";
      "# TYPE csync_op_duration_seconds histogram";
      "csync_op_duration_seconds_bucket{op=\"agdp_insert\",le=\"+Inf\"} 2";
      "csync_op_duration_seconds_count{op=\"agdp_insert\"} 2";
    ];
  (* every line is either a comment or name[{labels}] value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        Alcotest.(check bool)
          ("line has a value: " ^ line)
          true
          (String.contains line ' '))
    (String.split_on_char '\n' text);
  Alcotest.(check string) "label escaping" "a\\\\b\\\"c\\nd"
    (Expo.escape_label "a\\b\"c\nd")

(* A scrape must answer everything a stored trace answers: each scalar
   field of the trailer has a series named after it. *)
let test_expo_covers_trailer () =
  let m = Metrics.create () in
  let series =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else Some (List.hd (String.split_on_char ' ' line)))
      (String.split_on_char '\n' (Expo.render m))
  in
  match Metrics.summary_json m with
  | Json_out.Obj fields ->
    List.iter
      (function
        | key, Json_out.Int _ ->
          let name = "csync_" ^ key in
          Alcotest.(check bool)
            (key ^ " is exposed") true
            (List.mem name series || List.mem (name ^ "_total") series)
        | _ -> ())
      fields
  | _ -> Alcotest.fail "trailer is not an object"

let () =
  Alcotest.run "analyze"
    [
      ( "analysis",
        [
          Alcotest.test_case "engine trace round-trips + trailer matches"
            `Quick test_engine_trace_round_trip;
          Alcotest.test_case "profiled trace reconstructs span histograms"
            `Quick test_profiled_trace_has_spans;
          Alcotest.test_case "validated run times both structures" `Quick
            test_validated_run_times_both;
          Alcotest.test_case "trailerless crash trace" `Quick
            test_trailerless_crash_trace;
          Alcotest.test_case "missing file is an Error" `Quick
            test_missing_file;
        ] );
      ( "expo",
        [
          Alcotest.test_case "prometheus rendering" `Quick test_expo_render;
          Alcotest.test_case "every trailer counter is exposed" `Quick
            test_expo_covers_trailer;
        ] );
    ]
