(* Tests for the simulation substrate: deterministic RNG, heap, drifting
   clocks, topologies, and full engine runs with per-event validation
   against the reference algorithm and the hidden true time. *)

let q = Q.of_int

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed, different stream" true
    (seq (Rng.create 7) <> seq c)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of range"
  done;
  let lo = Q.of_ints 1 3 and hi = Q.of_ints 2 3 in
  for _ = 1 to 200 do
    let x = Rng.q_between r lo hi in
    if Q.(x < lo) || Q.(x > hi) then Alcotest.fail "q out of range"
  done;
  Alcotest.(check bool) "degenerate interval" true
    Q.(Rng.q_between r lo lo = lo);
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Rng.q_between: lo > hi") (fun () ->
      ignore (Rng.q_between r hi lo))

let test_rng_split_independent () =
  let r = Rng.create 3 in
  let s = Rng.split r in
  let a = List.init 10 (fun _ -> Rng.int r 100) in
  let b = List.init 10 (fun _ -> Rng.int s 100) in
  Alcotest.(check bool) "streams differ" true (a <> b)

(* --- Heap ------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun (t, v) -> Heap.push h ~at:(q t) v)
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order)

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~at:(q 1) v) [ 1; 2; 3; 4; 5 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !out)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap: pops in nondecreasing time order" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~at:(q t) t) times;
      let rec drain acc =
        match Heap.pop h with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare times)

(* --- Clock ------------------------------------------------------------ *)

let mk_clock ?(policy = `Random) ?(ppm = 200) ?(lt0 = Q.zero) seed =
  Clock.create ~drift:(Drift.of_ppm ppm) ~policy ~segment:(q 1) ~lt0
    ~rng:(Rng.create seed)

let test_clock_inverse () =
  let c = mk_clock ~lt0:(q 5) 11 in
  List.iter
    (fun rt ->
      let rt = Q.of_ints rt 7 in
      let lt = Clock.lt_of_rt c rt in
      Alcotest.(check bool)
        (Printf.sprintf "rt_of_lt (lt_of_rt %s)" (Q.to_string rt))
        true
        Q.(Clock.rt_of_lt c lt = rt))
    [ 0; 3; 10; 50; 200; 1000 ]

let test_clock_rate_bounds () =
  List.iter
    (fun policy ->
      let c = mk_clock ~policy 13 in
      let d = Clock.drift c in
      (* sample elapsed local time over many unit intervals; each must stay
         within the drift bounds: ℓ ∈ [dt/rmax, dt/rmin] *)
      for i = 0 to 49 do
        let rt0 = Q.of_ints i 1 and rt1 = Q.of_ints (i + 1) 1 in
        let l = Q.sub (Clock.lt_of_rt c rt1) (Clock.lt_of_rt c rt0) in
        let open Drift in
        if Q.(l < Q.div Q.one d.rmax) || Q.(l > Q.div Q.one d.rmin) then
          Alcotest.failf "segment %d rate out of bounds" i
      done)
    [ `Random; `Adversarial; `Sawtooth 5; `Fixed (Q.of_decimal_string "1.0001") ]

let test_clock_monotone () =
  let c = mk_clock ~policy:`Adversarial 17 in
  let prev = ref (Clock.lt_of_rt c Q.zero) in
  for i = 1 to 100 do
    let lt = Clock.lt_of_rt c (Q.of_ints i 3) in
    Alcotest.(check bool) "monotone" true Q.(lt >= !prev);
    prev := lt
  done

let test_clock_validation () =
  Alcotest.check_raises "bad fixed rate"
    (Invalid_argument "Clock.create: fixed rate outside drift bound")
    (fun () ->
      ignore
        (Clock.create ~drift:(Drift.of_ppm 10) ~policy:(`Fixed (q 2))
           ~segment:Q.one ~lt0:Q.zero ~rng:(Rng.create 1)));
  Alcotest.check_raises "bad segment"
    (Invalid_argument "Clock.create: segment must be positive") (fun () ->
      ignore
        (Clock.create ~drift:(Drift.of_ppm 10) ~policy:`Random ~segment:Q.zero
           ~lt0:Q.zero ~rng:(Rng.create 1)))

let test_tick_rounding () =
  let qq = Alcotest.testable Q.pp Q.equal in
  let us n d = Q.of_ints n (d * 1_000_000) in
  (* native path: both signs, and a whole tick comes back as is *)
  Alcotest.check qq "floor 1.5 us" (us 1 1) (Clock.floor_tick (us 3 2));
  Alcotest.check qq "ceil 1.5 us" (us 2 1) (Clock.ceil_tick (us 3 2));
  Alcotest.check qq "floor -1.5 us" (us (-2) 1) (Clock.floor_tick (us (-3) 2));
  Alcotest.check qq "ceil -1.5 us" (us (-1) 1) (Clock.ceil_tick (us (-3) 2));
  let whole = us 7 1 in
  Alcotest.(check bool) "whole tick unchanged" true
    (Clock.floor_tick whole == whole && Clock.ceil_tick whole == whole);
  (* Bigint path: a numerator too large to scale natively *)
  let big = Q.add (Q.of_int (1 lsl 55)) (us 1 3) in
  Alcotest.check qq "big floor" (Q.of_int (1 lsl 55)) (Clock.floor_tick big);
  Alcotest.check qq "big ceil"
    (Q.add (Q.of_int (1 lsl 55)) Clock.tick)
    (Clock.ceil_tick big);
  Alcotest.check qq "big negative floor"
    (Q.neg (Q.add (Q.of_int (1 lsl 55)) Clock.tick))
    (Clock.floor_tick (Q.neg big))

(* --- Topology ---------------------------------------------------------- *)

let connected n links =
  System_spec.is_connected
    (System_spec.uniform ~n ~source:0 ~drift:Drift.perfect
       ~transit:Transit.asynchronous ~links)

let test_topologies () =
  Alcotest.(check int) "line links" 4 (List.length (Topology.line 5));
  Alcotest.(check int) "ring links" 5 (List.length (Topology.ring 5));
  Alcotest.(check int) "star links" 4 (List.length (Topology.star 5));
  Alcotest.(check int) "complete links" 10 (List.length (Topology.complete 5));
  Alcotest.(check int) "tree links" 6 (List.length (Topology.binary_tree 7));
  Alcotest.(check int) "grid links" 12 (List.length (Topology.grid 3 3));
  List.iter
    (fun (name, n, links) ->
      Alcotest.(check bool) (name ^ " connected") true (connected n links))
    [
      ("line", 5, Topology.line 5);
      ("ring", 5, Topology.ring 5);
      ("star", 5, Topology.star 5);
      ("complete", 5, Topology.complete 5);
      ("tree", 7, Topology.binary_tree 7);
      ("grid", 9, Topology.grid 3 3);
    ]

let test_random_connected () =
  let rng = Rng.create 5 in
  for n = 2 to 12 do
    let links = Topology.random_connected rng ~n ~extra:2 in
    Alcotest.(check bool)
      (Printf.sprintf "random n=%d connected" n)
      true (connected n links)
  done

let test_ntp_hierarchy () =
  let n, links = Topology.ntp_hierarchy ~levels:3 ~width:4 ~fanout:2 in
  Alcotest.(check int) "node count" 13 n;
  Alcotest.(check bool) "connected" true (connected n links);
  (* every non-source node has at least one parent toward the source *)
  for p = 1 to n - 1 do
    let parents = Topology.parents_toward_source ~n ~links ~source:0 p in
    Alcotest.(check bool)
      (Printf.sprintf "node %d has parents" p)
      true (parents <> [])
  done;
  Alcotest.(check (list int)) "source has no parents" []
    (Topology.parents_toward_source ~n ~links ~source:0 0)

(* --- Engine ------------------------------------------------------------ *)

let small_spec links n =
  System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
    ~links

let test_engine_ntp_poll_validated () =
  let spec = small_spec (Topology.star 4) 4 in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 2 }))
      with
      Scenario.duration = Scenario.sec 20;
      validate = true;
      baselines =
        [
          Baseline.Driftfree { window = Scenario.sec 30 };
          Baseline.Ntp;
          Baseline.Cristian { rtt = Scenario.ms 25 };
        ];
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check (option int))
    "no validation failures" (Some 0) r.Engine.validation_failures;
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Alcotest.(check bool) "messages flowed" true (r.Engine.messages_sent > 20);
  List.iter
    (fun (name, a) ->
      Alcotest.(check int)
        (name ^ " contained everywhere")
        a.Engine.samples a.Engine.contained)
    r.Engine.per_algo;
  (* the optimal algorithm is never wider than any baseline, node by node *)
  let opt = List.assoc "optimal" r.Engine.per_algo in
  List.iter
    (fun (name, a) ->
      if name <> "optimal" then
        Array.iteri
          (fun i w ->
            if opt.Engine.final_widths.(i) > w +. 1e-9 then
              Alcotest.failf "optimal wider than %s at node %d" name i)
          a.Engine.final_widths)
    r.Engine.per_algo

(* Execution-identity pin: every per-algorithm summary of one lossy run
   with all five baselines, digested.  Re-recorded when readings became
   floor ticks (same counts); a change to the RNG streams, the transport's
   draw order, estimate order or any baseline's arithmetic fails it. *)
let per_algo_digest (r : Engine.result) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d/%d/%d;" r.Engine.messages_sent r.Engine.messages_lost
    r.Engine.events_total;
  List.iter
    (fun (name, (a : Engine.algo_summary)) ->
      Printf.bprintf b "%s:%d,%d,%d,%h,%h" name a.Engine.samples
        a.Engine.contained a.Engine.finite a.Engine.mean_width
        a.Engine.max_width;
      Array.iter (Printf.bprintf b ",%h") a.Engine.final_widths;
      Buffer.add_char b ';')
    r.Engine.per_algo;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_engine_per_algo_pin () =
  let spec = small_spec (Topology.star 5) 5 in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
        with
        Scenario.duration = Scenario.sec 15;
        seed = 11;
        loss_prob = 0.15;
        baselines = Baseline.all;
      }
  in
  Alcotest.(check (list string))
    "per_algo names"
    [ "optimal"; "driftfree"; "ntp"; "cristian"; "ftsp"; "marzullo" ]
    (List.map fst r.Engine.per_algo);
  Alcotest.(check int) "messages lost" 56 r.Engine.messages_lost;
  Alcotest.(check string)
    "per-algo digest" "1d127b2efb5a0750b0bc52f2e3c91e44" (per_algo_digest r)

let test_engine_deterministic () =
  let spec = small_spec (Topology.line 3) 3 in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Gossip { mean_gap = Scenario.ms 500 }))
      with
      Scenario.duration = Scenario.sec 10;
    }
  in
  let r1 = Engine.run scenario and r2 = Engine.run scenario in
  Alcotest.(check (option int))
    "validation off reports no count" None r1.Engine.validation_failures;
  Alcotest.(check int) "same message count" r1.Engine.messages_sent
    r2.Engine.messages_sent;
  Alcotest.(check int) "same event count" r1.Engine.events_total
    r2.Engine.events_total;
  let r3 = Engine.run { scenario with Scenario.seed = 43 } in
  Alcotest.(check bool) "different seed differs" true
    (r1.Engine.messages_sent <> r3.Engine.messages_sent
    || r1.Engine.events_total <> r3.Engine.events_total)

let test_engine_ring_token () =
  let spec = small_spec (Topology.ring 4) 4 in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Ring_token { gap = Scenario.ms 100 }))
      with
      Scenario.duration = Scenario.sec 10;
      validate = true;
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check (option int)) "validated" (Some 0) r.Engine.validation_failures;
  Alcotest.(check bool) "token circulated" true (r.Engine.messages_sent > 30)

let test_engine_burst () =
  let spec = small_spec (Topology.star 3) 3 in
  let scenario =
    {
      (Scenario.default ~spec
         ~traffic:
           (Scenario.Burst
              { check_period = Scenario.sec 1; width_target = Scenario.ms 1 }))
      with
      Scenario.duration = Scenario.sec 15;
      baselines = [ Baseline.Cristian { rtt = Scenario.ms 12 } ];
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check bool) "bursts fired" true (r.Engine.messages_sent > 10);
  let opt = List.assoc "optimal" r.Engine.per_algo in
  Alcotest.(check int) "optimal always contained" opt.Engine.samples
    opt.Engine.contained

let test_engine_message_loss () =
  let spec = small_spec (Topology.star 3) 3 in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
      with
      Scenario.duration = Scenario.sec 30;
      loss_prob = 0.3;
      loss_detect = Scenario.ms 100;
      seed = 9;
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check bool) "some messages lost" true (r.Engine.messages_lost > 0);
  Alcotest.(check bool) "some messages survived" true
    (r.Engine.messages_sent > r.Engine.messages_lost);
  let opt = List.assoc "optimal" r.Engine.per_algo in
  (* soundness survives loss *)
  Alcotest.(check int) "contained under loss" opt.Engine.samples
    opt.Engine.contained;
  (* and live points do not leak: sends of lost messages are un-livened *)
  Array.iter
    (fun ns ->
      Alcotest.(check bool) "live points bounded under loss" true
        (ns.Engine.peak_live <= 24))
    r.Engine.per_node

let test_engine_adversarial_policies () =
  let spec = small_spec (Topology.line 3) 3 in
  List.iter
    (fun delay ->
      let scenario =
        {
          (Scenario.default ~spec
             ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
          with
          Scenario.duration = Scenario.sec 10;
          validate = true;
          delay;
          clock_policy = `Adversarial;
        }
      in
      let r = Engine.run scenario in
      Alcotest.(check (option int))
        "validated under adversarial policies" (Some 0)
        r.Engine.validation_failures;
      Alcotest.(check int) "sound under adversarial policies" 0
        r.Engine.soundness_failures)
    [ `Min; `Max; `Alternate; `Uniform ]

let test_engine_bounded_state () =
  (* long run: state must stay bounded while events grow *)
  let spec = small_spec (Topology.star 4) 4 in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
      with
      Scenario.duration = Scenario.sec 120;
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check bool) "thousands of events" true (r.Engine.events_total > 2000);
  Array.iter
    (fun ns ->
      Alcotest.(check bool) "live points stay O(K2 |E|)" true
        (ns.Engine.peak_live <= 30);
      Alcotest.(check bool) "history stays O(K1 D)" true
        (ns.Engine.peak_history <= 120))
    r.Engine.per_node

(* --- Export ------------------------------------------------------------ *)

let test_export_csv () =
  let spec = small_spec (Topology.star 3) 3 in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
        with
        Scenario.duration = Scenario.sec 8;
        baselines = [ Baseline.Ntp ];
      }
  in
  let series = Export.series_csv r in
  let lines = String.split_on_char '\n' (String.trim series) in
  (match lines with
  | header :: rows ->
    Alcotest.(check string) "header" "rt,optimal,ntp" header;
    Alcotest.(check int) "one row per sample" (List.length r.Engine.series)
      (List.length rows);
    List.iter
      (fun row ->
        Alcotest.(check int) "three cells" 3
          (List.length (String.split_on_char ',' row)))
      rows
  | [] -> Alcotest.fail "empty series csv");
  let nodes = String.split_on_char '\n' (String.trim (Export.nodes_csv r)) in
  Alcotest.(check int) "nodes rows" 4 (List.length nodes);
  let summary = String.split_on_char '\n' (String.trim (Export.summary_csv r)) in
  Alcotest.(check int) "summary rows" 3 (List.length summary)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_on_ties;
        ] );
      qsuite "heap-props" [ prop_heap_sorts ];
      ( "clock",
        [
          Alcotest.test_case "inverse maps" `Quick test_clock_inverse;
          Alcotest.test_case "rates within drift bounds" `Quick
            test_clock_rate_bounds;
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "validation" `Quick test_clock_validation;
          Alcotest.test_case "tick rounding" `Quick test_tick_rounding;
        ] );
      ( "topology",
        [
          Alcotest.test_case "generators" `Quick test_topologies;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "ntp hierarchy" `Quick test_ntp_hierarchy;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ntp poll, fully validated" `Slow
            test_engine_ntp_poll_validated;
          Alcotest.test_case "deterministic runs" `Quick test_engine_deterministic;
          Alcotest.test_case "per-algo pin, all baselines, lossy" `Quick
            test_engine_per_algo_pin;
          Alcotest.test_case "ring token" `Quick test_engine_ring_token;
          Alcotest.test_case "probabilistic bursts" `Quick test_engine_burst;
          Alcotest.test_case "message loss (Section 3.3)" `Quick
            test_engine_message_loss;
          Alcotest.test_case "adversarial delay and drift" `Quick
            test_engine_adversarial_policies;
          Alcotest.test_case "bounded state on long runs" `Quick
            test_engine_bounded_state;
        ] );
      ("export", [ Alcotest.test_case "csv rendering" `Quick test_export_csv ]);
    ]
