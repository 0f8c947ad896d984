(* The benchmark suite's own tests: its drivers reproduce the library's
   runs exactly, every workload measures correctly at a reduced scale,
   and the metric table matches BENCHMARK.json. *)

open Bench_suite

let widths (r : Swarm.report) =
  List.map (fun (c : Swarm.client_report) -> c.last_width) r.per_client

(* The bench fleet, driven window by window (and, when [traced], with
   every span recorded), against one [Swarm.run_loopback] call. *)
let fleet_matches_swarm ~clients ~loss ~heartbeat ~duration ~traced () =
  let swarm =
    Swarm.run_loopback ~seed:7 ~loss ~cohort:1 ~duration:(Q.of_int duration)
      ~sample:Q.one ~heartbeat ~clients ()
  in
  Ledger.reset ();
  let p =
    {
      Fleet.clients;
      seed = 7;
      loss;
      heartbeat;
      hi_ms = 50;
      drift_ppm = 500;
      max_offset_ms = 250;
    }
  in
  let f = Fleet.create ~traced p in
  Ledger.set_on traced;
  for _ = 1 to duration do
    Fleet.run_window f
  done;
  Ledger.set_on false;
  let hub_frames = (Option.get swarm.hub).Hub.frames in
  Alcotest.(check int) "hub frames" hub_frames (Fleet.hub_stats f).Hub.frames;
  Alcotest.(check int)
    "fabric deliveries" swarm.fabric_delivered (Fleet.delivered f);
  Alcotest.(check (list (float 0.)))
    "per-client final widths" (widths swarm)
    (Array.to_list (Array.map (fun c -> c.Fleet.last_width) f.Fleet.clients));
  Alcotest.(check bool) "spans recorded iff traced" traced (Ledger.count () > 0)

let sim_matches_engine name ~traced () =
  let w = Option.get (Suite.find name) in
  let scenario =
    match w.Suite.kind with Suite.Sim_w s -> s.Suite.scenario | _ -> assert false
  in
  let m = Metrics.create () in
  let plain =
    Engine.run { (scenario ~seed:7 ~duration:3) with Scenario.trace = Metrics.sink m }
  in
  Ledger.reset ();
  let r = Sim.run_round ~traced (fun () -> scenario ~seed:7 ~duration:3) in
  Alcotest.(check int) "sent" plain.messages_sent r.Sim.result.messages_sent;
  Alcotest.(check int) "lost" plain.messages_lost r.Sim.result.messages_lost;
  Alcotest.(check int) "delivered" (Metrics.receives m) r.Sim.deliveries;
  Alcotest.(check int) "unsound" 0 r.Sim.result.soundness_failures;
  Alcotest.(check bool) "spans recorded iff traced" traced (Ledger.count () > 0)

(* ---- the metric table against BENCHMARK.json ---- *)

let benchmark = lazy (Compare.parse "../../BENCHMARK.json")

let listed section =
  match Compare.path (Lazy.force benchmark) [ section ] with
  | Some (Json_out.List l) ->
    List.map
      (fun m ->
        ( Option.get (Compare.str (Compare.field "name" m)),
          Option.get (Compare.str (Compare.field "unit" m)) ))
      l
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ section)

let table_matches () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (listed "end_to_end") Suite.end_to_end;
  Alcotest.(check (list (pair string string)))
    "per_layer" (listed "per_layer") Suite.per_layer_units;
  let workloads =
    match Compare.path (Lazy.force benchmark) [ "workloads" ] with
    | Some (Json_out.List l) ->
      List.map (fun w -> Option.get (Compare.str (Compare.field "name" w))) l
    | _ -> []
  in
  Alcotest.(check (list string))
    "workloads" workloads
    (List.map (fun w -> w.Suite.name) Suite.workloads)

(* every workload at reduced scale (fleets at K = 8 for 4 virtual
   seconds, simulator rounds of 3 s), traced and untraced *)
let quick name ~traced () =
  let w = Option.get (Suite.find name) in
  let r = Suite.measure ~quick:true ~seed:7 ~seconds:0. ~traced w in
  List.iter (fun (c, ok) -> Alcotest.(check bool) c true ok) r.Suite.checks;
  Alcotest.(check int) "failed" 0 r.Suite.failed;
  Alcotest.(check bool) "attempted" true (r.Suite.attempted > 0);
  let expected = listed (if traced then "per_layer" else "end_to_end") in
  Alcotest.(check (list string))
    "metric names" (List.map fst expected) (List.map fst r.Suite.metrics);
  List.iter
    (fun (n, unit) ->
      let v = List.assoc n r.Suite.metrics in
      Alcotest.(check bool) (n ^ " is finite") true (Float.is_finite v);
      Alcotest.(check string) (n ^ " unit") unit (Suite.unit_of n);
      if not traced then Alcotest.(check bool) (n ^ " is positive") true (v > 0.))
    expected;
  if traced then
    let c = List.assoc "harness.ledger_closure" r.Suite.metrics in
    Alcotest.(check bool)
      (Printf.sprintf "ledger closes within 5%% of wall (%.4f)" c)
      true
      (Float.abs (c -. 1.) <= 0.05)

(* ---- statistics and verdicts ---- *)

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let verdicts () =
  let b = { Compare.name = "msgs_per_s"; higher = true; bound = 0.1 } in
  let base = List.init 10 (fun i -> 100. +. float_of_int i) in
  let v change = snd (Compare.judge b ~parent:base ~change) in
  let label x = Compare.verdict_label (v x) in
  Alcotest.(check string) "same" "unchanged" (label base);
  Alcotest.(check string) "faster" "improved" (label (List.map (fun x -> x *. 1.3) base));
  Alcotest.(check string) "slower" "regressed" (label (List.map (fun x -> x *. 0.7) base))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bench-suite"
    [
      ( "equivalence",
        [
          case "fleet == Swarm.run_loopback (K=16)"
            (fleet_matches_swarm ~clients:16 ~loss:0. ~heartbeat:Q.one ~duration:6
               ~traced:false);
          case "traced fleet == Swarm.run_loopback (K=16)"
            (fleet_matches_swarm ~clients:16 ~loss:0. ~heartbeat:Q.one ~duration:6
               ~traced:true);
          case "lossy fleet == Swarm.run_loopback (K=8)"
            (fleet_matches_swarm ~clients:8 ~loss:0.1 ~heartbeat:(Q.of_ints 1 2)
               ~duration:12 ~traced:true);
          case "sim round == Engine.run (gossip)"
            (sim_matches_engine "sim-gossip-ring8" ~traced:false);
          case "traced sim round == Engine.run (chaos)"
            (sim_matches_engine "sim-ntp-chaos" ~traced:true);
        ] );
      ( "quick",
        case "metric table == BENCHMARK.json" table_matches
        :: List.concat_map
             (fun w ->
               [
                 case (w.Suite.name ^ " untraced") (quick w.Suite.name ~traced:false);
                 case (w.Suite.name ^ " traced") (quick w.Suite.name ~traced:true);
               ])
             Suite.workloads );
      ("compare", [ case "python quartiles" quartiles; case "verdicts" verdicts ]);
    ]
