(* Tests for the observability layer: sink composition, the metrics
   aggregation rules the engine's result numbers depend on, and the JSONL
   encoding of the trace stream. *)

let send ?(t = 1.) ?(events = 3) ?(bytes = 40) () =
  Trace.Send { t; src = 0; dst = 1; msg = 1; events; bytes }

let estimate ?(t = 2.) ?(node = 1) ~algo ~width ~contained () =
  Trace.Estimate { t; node; algo; width; contained }

let test_labels () =
  let cases =
    [
      (send (), "send");
      (Trace.Receive { t = 1.; src = 0; dst = 1; msg = 1 }, "receive");
      (Trace.Lost { t = 1.; msg = 1 }, "lost");
      (estimate ~algo:"optimal" ~width:1. ~contained:true (), "estimate");
      (Trace.Validation { t = 1.; node = 0; ok = true }, "validation");
      (Trace.Liveness { node = 0; live = 4 }, "liveness");
      (Trace.Oracle_insert { key = 0; live = 4 }, "oracle_insert");
      (Trace.Oracle_gc { key = 0; live = 3 }, "oracle_gc");
    ]
  in
  List.iter
    (fun (ev, want) -> Alcotest.(check string) want want (Trace.label ev))
    cases

let test_tee_order () =
  let seen = ref [] in
  let tag name = Trace.callback (fun ev -> seen := (name, Trace.label ev) :: !seen) in
  let s = Trace.tee (tag "a") (Trace.tee (tag "b") (tag "c")) in
  Trace.emit s (send ());
  Alcotest.(check (list (pair string string)))
    "a then b then c"
    [ ("a", "send"); ("b", "send"); ("c", "send") ]
    (List.rev !seen);
  Trace.emit Trace.null (send ()) (* null swallows without complaint *)

let feed m evs = List.iter (Trace.emit (Metrics.sink m)) evs

let test_counters () =
  let m = Metrics.create () in
  feed m
    [
      send ~events:3 ~bytes:40 ();
      send ~events:5 ~bytes:60 ();
      Trace.Receive { t = 2.; src = 0; dst = 1; msg = 1 };
      Trace.Lost { t = 2.; msg = 2 };
      Trace.Validation { t = 3.; node = 1; ok = true };
      Trace.Validation { t = 4.; node = 1; ok = false };
      Trace.Liveness { node = 0; live = 4 };
      Trace.Liveness { node = 1; live = 9 };
      Trace.Liveness { node = 0; live = 2 };
      Trace.Oracle_insert { key = 0; live = 1 };
      Trace.Oracle_insert { key = 1; live = 2 };
      Trace.Oracle_gc { key = 0; live = 1 };
    ];
  Alcotest.(check int) "sends" 2 (Metrics.sends m);
  Alcotest.(check int) "receives" 1 (Metrics.receives m);
  Alcotest.(check int) "losses" 1 (Metrics.losses m);
  Alcotest.(check int) "payload events" 8 (Metrics.payload_events_total m);
  Alcotest.(check int) "payload max" 5 (Metrics.payload_events_max m);
  Alcotest.(check int) "payload bytes" 100 (Metrics.payload_bytes_total m);
  Alcotest.(check int) "validation checks" 2 (Metrics.validation_checks m);
  Alcotest.(check int) "validation failures" 1 (Metrics.validation_failures m);
  Alcotest.(check int) "liveness peak" 9 (Metrics.liveness_peak m);
  Alcotest.(check int) "oracle inserts" 2 (Metrics.oracle_inserts m);
  Alcotest.(check int) "oracle gcs" 1 (Metrics.oracle_gcs m)

let test_algo_stats () =
  let m = Metrics.create () in
  feed m
    [
      estimate ~algo:"optimal" ~width:2. ~contained:true ();
      estimate ~algo:"optimal" ~width:4. ~contained:true ();
      estimate ~algo:"optimal" ~width:infinity ~contained:true ();
      estimate ~algo:"ntp" ~width:6. ~contained:false ();
    ];
  Alcotest.(check (list string))
    "first-appearance order" [ "optimal"; "ntp" ] (Metrics.algo_names m);
  let opt = Metrics.algo_stats m "optimal" in
  Alcotest.(check int) "samples" 3 opt.Metrics.samples;
  Alcotest.(check int) "contained" 3 opt.Metrics.contained;
  Alcotest.(check int) "finite" 2 opt.Metrics.finite;
  Alcotest.(check (float 1e-9)) "mean over finite" 3. opt.Metrics.mean_width;
  Alcotest.(check (float 1e-9)) "max width" 4. opt.Metrics.max_width;
  (* a non-contained baseline is not a soundness failure... *)
  Alcotest.(check int) "baselines may miss" 0 (Metrics.soundness_failures m);
  (* ...but a non-contained optimal estimate is *)
  feed m [ estimate ~algo:"optimal" ~width:1. ~contained:false () ];
  Alcotest.(check int) "optimal miss counted" 1 (Metrics.soundness_failures m);
  let unseen = Metrics.algo_stats m "nope" in
  Alcotest.(check int) "unseen algo" 0 unseen.Metrics.samples;
  Alcotest.(check bool) "unseen mean is nan" true
    (Float.is_nan unseen.Metrics.mean_width)

let test_summary_json () =
  let m = Metrics.create () in
  feed m
    [
      send ();
      estimate ~algo:"optimal" ~width:infinity ~contained:true ();
    ];
  let line = Json_out.to_line (Metrics.summary_json m) in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "discriminator" true (has "\"event\":\"summary\"");
  Alcotest.(check bool) "sends" true (has "\"sends\":1");
  Alcotest.(check bool) "algo block" true (has "\"optimal\":");
  (* no finite sample: mean_width is nan, which JSON must render null *)
  Alcotest.(check bool) "nan as null" true (has "\"mean_width\":null")

let test_jsonl_sink () =
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  let s = Trace.jsonl oc in
  Trace.emit s (send ());
  Trace.emit s (estimate ~algo:"optimal" ~width:2.5 ~contained:true ());
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let first = List.nth lines 0 in
  Alcotest.(check string) "send line"
    "{\"event\":\"send\",\"t\":1.0,\"src\":0,\"dst\":1,\"msg\":1,\"events\":3,\"bytes\":40}"
    first

(* satellite (a): the sink flushes per line, so a kill -9 after an emit
   loses at most the line being written, never earlier ones *)
let test_jsonl_flushes () =
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  let s = Trace.jsonl oc in
  Trace.emit s (send ());
  (* read back WITHOUT closing the writer: only a flush can explain the
     bytes being visible *)
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  close_out oc;
  Sys.remove path;
  Alcotest.(check bool) "line on disk before close" true
    (String.length line > 0 && line.[0] = '{')

(* ---- Json_in: the reader side of the trace loop ---- *)

let json = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Json_out.to_line v))
    ( = )

let parse_ok s =
  match Json_in.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s (Json_in.error_to_string e)

let test_json_in_basics () =
  let open Json_out in
  Alcotest.(check json) "null" Null (parse_ok "null");
  Alcotest.(check json) "true" (Bool true) (parse_ok " true ");
  Alcotest.(check json) "int" (Int (-42)) (parse_ok "-42");
  Alcotest.(check json) "float" (Float 2.5) (parse_ok "2.5");
  Alcotest.(check json) "exp is float" (Float 100.) (parse_ok "1e2");
  Alcotest.(check json) "string escapes" (Str "a\"\\\n\tb")
    (parse_ok {|"a\"\\\n\tb"|});
  Alcotest.(check json) "unicode escape" (Str "\xe2\x82\xac")
    (parse_ok {|"€"|});
  Alcotest.(check json) "nested"
    (Obj [ ("a", List [ Int 1; Null ]); ("b", Obj []) ])
    (parse_ok {|{"a":[1,null],"b":{}}|});
  let bad s =
    match Json_in.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "1 2";
  bad "{\"a\":}";
  bad "[1,]";
  bad "\"unterminated";
  bad "nul";
  bad "{\"a\" 1}"

let rec strip_nonfinite v =
  match v with
  | Json_out.Float f when not (Float.is_finite f) -> Json_out.Null
  | Json_out.List items -> Json_out.List (List.map strip_nonfinite items)
  | Json_out.Obj fields ->
    Json_out.Obj (List.map (fun (k, v) -> (k, strip_nonfinite v)) fields)
  | v -> v

(* generator for arbitrary Json_out values (depth-bounded) *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json_out.Null;
        map (fun b -> Json_out.Bool b) bool;
        map (fun n -> Json_out.Int n) int;
        map (fun f -> Json_out.Float f) float;
        map (fun s -> Json_out.Str s) (string_size ~gen:char (int_bound 8));
      ]
  in
  let key = string_size ~gen:printable (int_bound 5) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json_out.List l)
                 (list_size (int_bound 4) (self (depth - 1))));
            (1, map (fun l -> Json_out.Obj l)
                 (list_size (int_bound 4)
                    (pair key (self (depth - 1)))));
          ])
    3

(* satellite (b): floats round-trip exactly through the shortest-repr
   writer and the reader *)
let prop_float_round_trip =
  QCheck.Test.make ~name:"json_in (json_out float) = id" ~count:2000
    QCheck.float (fun f ->
      if not (Float.is_finite f) then true
      else
        match Json_in.parse (Json_out.to_line (Json_out.Float f)) with
        | Ok (Json_out.Float f') -> Int64.equal (Int64.bits_of_float f)
                                      (Int64.bits_of_float f')
        | _ -> false)

(* satellite (c): everything the writer emits parses back structurally *)
let prop_json_round_trip =
  QCheck.Test.make ~name:"json_in (json_out v) = v" ~count:1000
    (QCheck.make ~print:Json_out.to_line json_gen) (fun v ->
      match Json_in.parse (Json_out.to_line v) with
      | Ok v' -> v' = strip_nonfinite v
      | Error _ -> false)

(* satellite (c): the parser is total on arbitrary bytes *)
let prop_json_in_total =
  QCheck.Test.make ~name:"json_in total on garbage" ~count:5000
    QCheck.(string_gen Gen.char) (fun s ->
      match Json_in.parse s with Ok _ | Error _ -> true)

(* ---- event_of_json: every constructor round-trips ---- *)

let all_events =
  [
    Trace.Send { t = 1.5; src = 0; dst = 1; msg = 7; events = 3; bytes = 40 };
    Trace.Receive { t = nan; src = 2; dst = 0; msg = 7 };
    Trace.Lost { t = 2.25; msg = 9 };
    Trace.Estimate
      { t = 3.; node = 1; algo = "optimal"; width = 0.125; contained = true };
    Trace.Estimate
      { t = 3.; node = 1; algo = "ntp"; width = infinity; contained = false };
    Trace.Validation { t = 4.; node = 2; ok = false };
    Trace.Liveness { node = 0; live = 12 };
    Trace.Oracle_insert { key = 3; live = 5 };
    Trace.Oracle_gc { key = 3; live = 4 };
    Trace.Net_tx { t = 5.; dst = 1; kind = "data"; bytes = 96 };
    Trace.Net_rx { t = 5.5; src = 1; kind = "ack"; bytes = 32 };
    Trace.Net_drop { t = 6.; reason = "bad \"checksum\"\n" };
    Trace.Peer_up { t = 7.; peer = 2 };
    Trace.Peer_down { t = 8.; peer = 2 };
    Trace.Retransmit { t = 9.; peer = 1; msg = 11 };
    Trace.Checkpoint { t = 10.; node = 1; bytes = 512 };
    Trace.Crash { t = 11.; node = 2 };
    Trace.Recover { t = 12.; node = 2 };
    Trace.Link_down { t = 12.5; u = 1; v = 3 };
    Trace.Link_up { t = 12.75; u = 1; v = 3 };
    Trace.Hub_cohort
      {
        t = 13.;
        cohort = 1;
        clients = 8;
        established = 7;
        frames = 4096;
        batched = 512;
        coalesced = 64;
      };
    Trace.Protocol_violation
      {
        t = 13.5;
        node = 1;
        rule = "receive_unique";
        detail = "msg 7 from 2 accepted \"twice\"\n";
      };
    Trace.Span { name = "agdp_insert"; dur = 3.2e-05 };
  ]

let test_event_round_trip () =
  List.iter
    (fun ev ->
      let line = Json_out.to_line (Trace.json_of_event ev) in
      match Json_in.parse line with
      | Error e ->
        Alcotest.failf "%s: %s" line (Json_in.error_to_string e)
      | Ok j -> (
        match Trace.event_of_json j with
        | Error m -> Alcotest.failf "%s: %s" line m
        | Ok ev' ->
          (* nan timestamps break structural equality; byte-compare the
             re-rendering instead (floats round-trip exactly) *)
          Alcotest.(check string) (Trace.label ev) line
            (Json_out.to_line (Trace.json_of_event ev'))))
    all_events;
  (* every constructor appears exactly once above (estimates twice) *)
  let labels = List.sort_uniq compare (List.map Trace.label all_events) in
  Alcotest.(check int) "all 22 constructors covered" 22 (List.length labels)

(* ---- golden on-disk formats ---- *)

(* [all_events] with its NaN timestamp pinned to explicit bits: the
   stdlib [nan] changed bit pattern between OCaml 4.14 and 5.1, and the
   flight dump stores raw IEEE-754 bits *)
let golden_events =
  let qnan = Int64.float_of_bits 0x7FF8_0000_0000_0001L in
  List.map
    (function
      | Trace.Receive r when Float.is_nan r.t -> Trace.Receive { r with t = qnan }
      | ev -> ev)
    all_events

(* The exact JSONL line of every event.  Round trips alone would accept
   a codec that changed the on-disk schema in both directions at once;
   traces already written (CI artifacts, crash post-mortems) would then
   stop reading back. *)
let golden_jsonl =
  [
    {|{"event":"send","t":1.5,"src":0,"dst":1,"msg":7,"events":3,"bytes":40}|};
    {|{"event":"receive","t":null,"src":2,"dst":0,"msg":7}|};
    {|{"event":"lost","t":2.25,"msg":9}|};
    {|{"event":"estimate","t":3.0,"node":1,"algo":"optimal","width":0.125,"contained":true}|};
    {|{"event":"estimate","t":3.0,"node":1,"algo":"ntp","width":null,"contained":false}|};
    {|{"event":"validation","t":4.0,"node":2,"ok":false}|};
    {|{"event":"liveness","node":0,"live":12}|};
    {|{"event":"oracle_insert","key":3,"live":5}|};
    {|{"event":"oracle_gc","key":3,"live":4}|};
    {|{"event":"net_tx","t":5.0,"dst":1,"kind":"data","bytes":96}|};
    {|{"event":"net_rx","t":5.5,"src":1,"kind":"ack","bytes":32}|};
    {|{"event":"net_drop","t":6.0,"reason":"bad \"checksum\"\n"}|};
    {|{"event":"peer_up","t":7.0,"peer":2}|};
    {|{"event":"peer_down","t":8.0,"peer":2}|};
    {|{"event":"retransmit","t":9.0,"peer":1,"msg":11}|};
    {|{"event":"checkpoint","t":10.0,"node":1,"bytes":512}|};
    {|{"event":"crash","t":11.0,"node":2}|};
    {|{"event":"recover","t":12.0,"node":2}|};
    {|{"event":"link_down","t":12.5,"u":1,"v":3}|};
    {|{"event":"link_up","t":12.75,"u":1,"v":3}|};
    {|{"event":"hub_cohort","t":13.0,"cohort":1,"clients":8,"established":7,"frames":4096,"batched":512,"coalesced":64}|};
    {|{"event":"protocol_violation","t":13.5,"node":1,"rule":"receive_unique","detail":"msg 7 from 2 accepted \"twice\"\n"}|};
    {|{"event":"span","name":"agdp_insert","dur":3.2e-05}|};
  ]

let jsonl_lines evs =
  List.map (fun ev -> Json_out.to_line (Trace.json_of_event ev)) evs

let test_golden_jsonl () =
  Alcotest.(check (list string))
    "JSONL lines" golden_jsonl (jsonl_lines golden_events)

(* CSFR v1: magic, version, count, tagged events, FNV-1a/32 trailer *)
let golden_flight_hex =
  String.concat ""
    [
      "43534652012e00000000000000f83f00020e065001010000000000f87f04000e";
      "02000000000000024012030000000000000840020e6f7074696d616c00000000";
      "0000c03f0103000000000000084002066e7470000000000000f07f0004000000";
      "0000001040040005001806060a070608080000000000001440020864617461c0";
      "01090000000000001640020661636b400a00000000000018401e626164202263";
      "6865636b73756d220a0b0000000000001c40040c0000000000002040040d0000";
      "00000000224002160e00000000000024400280080f0000000000002640041000";
      "0000000000284004110000000000002940020612000000000080294002061300";
      "00000000002a4002100e804080088001140000000000002b40021c7265636569";
      "76655f756e697175653c6d736720372066726f6d203220616363657074656420";
      "227477696365220a1516616764705f696e736572748dedb5a0f7c6003ff58a73";
      "02";
    ]

let test_golden_flight () =
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let data = Flight.encode golden_events in
  Alcotest.(check string) "CSFR v1 bytes" golden_flight_hex (hex data);
  match Flight.decode data with
  | Error m -> Alcotest.fail m
  | Ok evs ->
    Alcotest.(check (list string))
      "decodes back" golden_jsonl (jsonl_lines evs)

let test_event_of_json_rejects () =
  let bad j =
    match Trace.event_of_json j with
    | Ok _ -> Alcotest.failf "accepted %s" (Json_out.to_line j)
    | Error _ -> ()
  in
  bad Json_out.Null;
  bad (Json_out.Obj []);
  bad (Json_out.Obj [ ("event", Json_out.Str "nope") ]);
  bad (Json_out.Obj [ ("event", Json_out.Str "send") ]);
  bad
    (Json_out.Obj
       [ ("event", Json_out.Str "span"); ("name", Json_out.Int 3);
         ("dur", Json_out.Float 1.) ])

(* ---- histogram ---- *)

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty quantile nan" true
    (Float.is_nan (Histogram.quantile h 0.5));
  List.iter (Histogram.record h) [ 1e-6; 2e-6; 4e-6; 1e-3; 0.5 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum" 0.501007 (Histogram.sum h);
  Alcotest.(check (float 0.)) "min" 1e-6 (Histogram.min_value h);
  Alcotest.(check (float 0.)) "max" 0.5 (Histogram.max_value h);
  (* quantiles: within a bucket's relative error, monotone, max-exact *)
  let q50 = Histogram.quantile h 0.5 in
  Alcotest.(check bool) "p50 near 4e-6" true (q50 >= 4e-6 && q50 <= 5e-6);
  Alcotest.(check (float 0.)) "p100 is exact max" 0.5 (Histogram.quantile h 1.);
  Alcotest.(check bool) "monotone" true
    (Histogram.quantile h 0.2 <= Histogram.quantile h 0.9);
  (* recording is total: junk goes in the underflow bucket, not nowhere *)
  Histogram.record h nan;
  Histogram.record h (-3.);
  Histogram.record h 0.;
  Alcotest.(check int) "junk still counted" 8 (Histogram.count h);
  (* overflow bucket *)
  Histogram.record h 1e12;
  Alcotest.(check (float 0.)) "overflow keeps exact max" 1e12
    (Histogram.quantile h 1.)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 1e-5; 2e-5 ];
  List.iter (Histogram.record b) [ 3e-4; 4e-4; 5e-4 ];
  let m = Histogram.copy a in
  Histogram.merge_into ~dst:m b;
  Alcotest.(check int) "merged count" 5 (Histogram.count m);
  Alcotest.(check (float 1e-18)) "merged sum"
    (Histogram.sum a +. Histogram.sum b) (Histogram.sum m);
  Alcotest.(check (float 0.)) "merged min" 1e-5 (Histogram.min_value m);
  Alcotest.(check (float 0.)) "merged max" 5e-4 (Histogram.max_value m);
  (* mismatched configs refuse *)
  let other = Histogram.create ~buckets:16 () in
  Alcotest.check_raises "config mismatch"
    (Invalid_argument "Histogram.merge_into: bucket configs differ")
    (fun () -> Histogram.merge_into ~dst:m other);
  (* cumulative is increasing and ends at count *)
  let cum = Histogram.cumulative m in
  let counts = List.map snd cum in
  Alcotest.(check bool) "cumulative increasing" true
    (List.sort compare counts = counts);
  Alcotest.(check int) "cumulative ends at count" 5
    (List.fold_left (fun _ c -> c) 0 counts)

(* ---- prof ---- *)

let test_prof () =
  (* disabled: no clock reads, no events *)
  let hits = ref 0 in
  let prof_off = Prof.null in
  Alcotest.(check bool) "null disabled" false (Prof.enabled prof_off);
  let t0 = Prof.start prof_off in
  Prof.stop prof_off "x" t0;
  Alcotest.(check (float 0.)) "disabled start is 0" 0. t0;
  (* enabled, deterministic clock: each call advances 1.0 *)
  let clock = ref 0. in
  let now () =
    let v = !clock in
    clock := v +. 1.;
    v
  in
  let spans = ref [] in
  let sink =
    Trace.callback (fun ev ->
        incr hits;
        match ev with
        | Trace.Span { name; dur } -> spans := (name, dur) :: !spans
        | _ -> ())
  in
  let prof = Prof.make ~now ~sink () in
  Alcotest.(check bool) "enabled" true (Prof.enabled prof);
  let t0 = Prof.start prof in
  Prof.stop prof "op_a" t0;
  Alcotest.(check (list (pair string (float 0.))))
    "one span, dur 1" [ ("op_a", 1.) ] !spans;
  (* span emits even when the thunk raises *)
  (try Prof.span prof "op_b" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span emitted on raise" 2 !hits

(* ---- metrics: span histograms in the aggregate ---- *)

let test_metrics_spans () =
  let m = Metrics.create () in
  feed m
    [
      Trace.Span { name = "agdp_insert"; dur = 1e-5 };
      Trace.Span { name = "codec_encode"; dur = 2e-6 };
      Trace.Span { name = "agdp_insert"; dur = 3e-5 };
    ];
  Alcotest.(check (list string))
    "span names in order" [ "agdp_insert"; "codec_encode" ]
    (Metrics.span_names m);
  (match Metrics.span_hist m "agdp_insert" with
  | None -> Alcotest.fail "agdp_insert histogram missing"
  | Some h ->
    Alcotest.(check int) "agdp_insert count" 2 (Histogram.count h);
    Alcotest.(check (float 1e-18)) "agdp_insert sum" 4e-5 (Histogram.sum h));
  Alcotest.(check bool) "unseen op" true
    (Metrics.span_hist m "nope" = None);
  (* the summary trailer carries the per-op stats *)
  let line = Json_out.to_line (Metrics.summary_json m) in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "spans block" true (has "\"spans\":");
  Alcotest.(check bool) "per-op entry" true (has "\"agdp_insert\":")

(* satellite (a): a trace truncated at ANY byte still parses up to the
   cut — complete lines all come back, the ragged tail is flagged as
   truncation, never as a bad line *)
let test_truncated_at_any_byte () =
  let m = Metrics.create () in
  let evs =
    [
      send ();
      estimate ~algo:"optimal" ~width:2.5 ~contained:true ();
      Trace.Span { name = "agdp_insert"; dur = 1.25e-5 };
    ]
  in
  List.iter (Metrics.on_event m) evs;
  let buf = Buffer.create 256 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Json_out.to_line (Trace.json_of_event ev));
      Buffer.add_char buf '\n')
    evs;
  Buffer.add_string buf (Json_out.to_line (Metrics.summary_json m));
  Buffer.add_char buf '\n';
  let text = Buffer.contents buf in
  let full = Analysis.of_string text in
  Alcotest.(check int) "full: no bad lines" 0 (List.length full.Analysis.bad);
  Alcotest.(check bool) "full: not truncated" false full.Analysis.truncated;
  (match Analysis.summary_matches full with
  | Ok () -> ()
  | Error m -> Alcotest.failf "full trace trailer mismatch: %s" m);
  for cut = 0 to String.length text - 1 do
    let a = Analysis.of_string (String.sub text 0 cut) in
    if a.Analysis.bad <> [] then
      Alcotest.failf "cut at byte %d produced bad lines" cut;
    let complete_lines = ref 0 in
    String.iteri
      (fun i c -> if i < cut && c = '\n' then incr complete_lines)
      text;
    let parsed =
      List.length a.Analysis.events
      + (match a.Analysis.trailer with Some _ -> 1 | None -> 0)
    in
    (* a cut exactly at a newline leaves a complete (just unterminated)
       JSON line, which legitimately parses: allow one extra *)
    let at_line_end = cut > 0 && text.[cut] = '\n' in
    if
      parsed <> !complete_lines
      && not (at_line_end && parsed = !complete_lines + 1)
    then
      Alcotest.failf "cut at byte %d: %d complete lines but %d parsed" cut
        !complete_lines parsed
  done

(* the guarantee bin/clocksync relies on for --trace: a Metrics teed onto
   the same stream as the engine's internal one reproduces the result *)
let test_external_metrics_match_result () =
  let spec =
    System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.star 3)
  in
  let m = Metrics.create () in
  let scenario =
    {
      (Scenario.default ~spec
         ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
      with
      Scenario.duration = Scenario.sec 10;
      trace = Metrics.sink m;
      seed = 23;
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check int) "sends" r.Engine.messages_sent (Metrics.sends m);
  Alcotest.(check int) "losses" r.Engine.messages_lost (Metrics.losses m);
  Alcotest.(check int) "payload events" r.Engine.payload_events_total
    (Metrics.payload_events_total m);
  Alcotest.(check int) "payload bytes" r.Engine.payload_bytes_total
    (Metrics.payload_bytes_total m);
  Alcotest.(check int) "soundness" r.Engine.soundness_failures
    (Metrics.soundness_failures m);
  let opt_r = List.assoc "optimal" r.Engine.per_algo in
  let opt_m = Metrics.algo_stats m "optimal" in
  Alcotest.(check int) "optimal samples" opt_r.Engine.samples
    opt_m.Metrics.samples;
  Alcotest.(check int) "optimal contained" opt_r.Engine.contained
    opt_m.Metrics.contained

(* ---- flight recorder ---- *)

(* nan timestamps break structural equality; compare via the exact
   JSONL rendering, as the event round-trip test does *)
let render_events evs =
  List.map (fun ev -> Json_out.to_line (Trace.json_of_event ev)) evs

let test_flight_ring () =
  let fr = Flight.create ~capacity:3 () in
  Alcotest.(check (list string)) "empty" [] (render_events (Flight.events fr));
  List.iteri
    (fun i _ -> Flight.record fr (Trace.Lost { t = float_of_int i; msg = i }))
    [ (); (); (); (); () ];
  Alcotest.(check int) "recorded counts everything" 5 (Flight.recorded fr);
  Alcotest.(check (list string))
    "last capacity events, oldest first"
    (render_events
       [ Trace.Lost { t = 2.; msg = 2 }; Trace.Lost { t = 3.; msg = 3 };
         Trace.Lost { t = 4.; msg = 4 } ])
    (render_events (Flight.events fr))

let test_flight_dump_load () =
  let fr = Flight.create ~capacity:8 () in
  List.iter (Flight.record fr) all_events;
  let path = Filename.temp_file "flight" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Flight.dump fr path;
      match Flight.load path with
      | Error m -> Alcotest.fail m
      | Ok evs ->
        Alcotest.(check (list string))
          "dump/load round-trips the retained suffix"
          (render_events (Flight.events fr))
          (render_events evs));
  match Flight.load path with
  | Ok _ -> Alcotest.fail "loading a deleted file should fail"
  | Error _ -> ()

(* dump of ANY event sequence decodes to the exact last-N suffix *)
let prop_flight_round_trip =
  QCheck.Test.make ~name:"flight ring round-trips any sequence" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_bound 40) (oneofl all_events)))
    (fun (capacity, evs) ->
      let fr = Flight.create ~capacity () in
      List.iter (Flight.record fr) evs;
      let n = List.length evs in
      let expected =
        List.filteri (fun i _ -> i >= n - min n capacity) evs
      in
      match Flight.decode (Flight.encode (Flight.events fr)) with
      | Error _ -> false
      | Ok got ->
        render_events got = render_events expected
        && Flight.recorded fr = n)

(* truncated-at-any-byte (and bit-flipped-anywhere) dumps fail loudly *)
let test_flight_total () =
  let data = Flight.encode all_events in
  let n = String.length data in
  for len = 0 to n - 1 do
    match Flight.decode (String.sub data 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
    | Error _ -> ()
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match Flight.decode (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "bit flip at byte %d decoded" i
    | Error _ -> ()
  done;
  match Flight.decode (data ^ "x") with
  | Ok _ -> Alcotest.fail "trailing bytes decoded"
  | Error _ -> ()

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "tee order" `Quick test_tee_order;
          Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
          Alcotest.test_case "jsonl flushes per line" `Quick test_jsonl_flushes;
        ] );
      ( "json_in",
        [
          Alcotest.test_case "basics" `Quick test_json_in_basics;
          QCheck_alcotest.to_alcotest prop_float_round_trip;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          QCheck_alcotest.to_alcotest prop_json_in_total;
        ] );
      ( "events",
        [
          Alcotest.test_case "every constructor round-trips" `Quick
            test_event_round_trip;
          Alcotest.test_case "malformed events rejected" `Quick
            test_event_of_json_rejects;
          Alcotest.test_case "truncated at any byte" `Quick
            test_truncated_at_any_byte;
          Alcotest.test_case "golden JSONL lines" `Quick test_golden_jsonl;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "record/quantile/underflow" `Quick
            test_histogram_basics;
          Alcotest.test_case "merge and cumulative" `Quick test_histogram_merge;
        ] );
      ( "prof",
        [ Alcotest.test_case "start/stop/span" `Quick test_prof ] );
      ( "flight",
        [
          Alcotest.test_case "ring keeps the last N" `Quick test_flight_ring;
          Alcotest.test_case "dump/load round-trip" `Quick
            test_flight_dump_load;
          QCheck_alcotest.to_alcotest prop_flight_round_trip;
          Alcotest.test_case "corrupt dumps fail loudly" `Quick
            test_flight_total;
          Alcotest.test_case "golden CSFR v1 bytes" `Quick test_golden_flight;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "algo stats and soundness" `Quick test_algo_stats;
          Alcotest.test_case "summary json" `Quick test_summary_json;
          Alcotest.test_case "span histograms" `Quick test_metrics_spans;
          Alcotest.test_case "external metrics match engine result" `Quick
            test_external_metrics_match_result;
        ] );
    ]
