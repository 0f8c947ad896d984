(* Adversarial conditions: clocks flip between their extreme rates each
   segment and the network alternates between fastest and slowest
   deliveries — the executions the optimality proof quantifies over.
   The optimal algorithm's intervals must still always contain the true
   source time, and this example also demonstrates the witness machinery:
   the reported interval cannot be narrowed, because both of its endpoints
   are realized by indistinguishable executions.

   Run with:  dune exec examples/adversarial_drift.exe *)

let q = Q.of_int

let () =
  Format.printf "== adversarial drift and delays ==@.@.";
  let spec =
    System_spec.uniform ~n:4 ~source:0
      ~drift:(Drift.of_ppm 500)
      ~transit:(Transit.of_q (Scenario.ms 2) (Scenario.ms 30))
      ~links:(Topology.ring 4)
  in
  let scenario =
    {
      (Scenario.default ~spec
         ~traffic:(Scenario.Gossip { mean_gap = Scenario.ms 400 }))
      with
      Scenario.duration = Scenario.sec 45;
      clock_policy = `Adversarial;
      delay = `Alternate;
      validate = true;
      seed = 11;
    }
  in
  let r, m = Ex_common.run scenario in
  Format.printf
    "gossip on a 4-ring, 500 ppm adversarial clocks, alternating delays@.";
  Format.printf "%d messages; validation failures: %d (must be 0)@.@."
    (Metrics.sends m) (Ex_common.failures r);
  let opt = Metrics.algo_stats m "optimal" in
  Format.printf "optimal: %d/%d samples contained the true time@."
    opt.Metrics.contained opt.Metrics.samples;
  Format.printf "mean width %s, max width %s@.@."
    (Table.fq opt.Metrics.mean_width)
    (Table.fq opt.Metrics.max_width);

  (* tightness demonstration on a small hand-built view: both interval
     endpoints are achieved by feasible executions (Theorem 2.1) *)
  Format.printf "tightness (Theorem 2.1) on a hand-built round trip:@.";
  let spec2 =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (q 1) (q 5))
      ~links:[ (0, 1) ]
  in
  let view = View.create ~n_procs:2 in
  (* readings in whole seconds, as ticks *)
  let add proc seq secs kind =
    View.add view
      { Event.id = { proc; seq };
        lt = secs * System_spec.ticks_per_second;
        kind }
  in
  add 0 0 0 Event.Init;
  add 0 1 10 (Event.Send { msg = 1; dst = 1 });
  add 1 0 0 Event.Init;
  add 1 1 8 (Event.Recv { msg = 1; src = 0; send = { proc = 0; seq = 1 } });
  add 1 2 10 (Event.Send { msg = 2; dst = 0 });
  add 0 2 17 (Event.Recv { msg = 2; src = 1; send = { proc = 1; seq = 2 } });
  let at = { Event.proc = 1; seq = 2 } in
  let interval = Reference.estimate spec2 view ~at in
  Format.printf "  optimal interval at p1's send: %s = %s@."
    (Interval.to_string interval)
    (Interval.to_string_approx interval);
  let sp = Option.get (Reference.source_point spec2 view) in
  let latest = Witness.extremal spec2 view ~anchor:sp `Latest in
  let earliest = Witness.extremal spec2 view ~anchor:sp `Earliest in
  Format.printf "  execution A (all-late):  source time there = %s@."
    (Q.to_string (Q.sub (latest at) (latest sp) |> Q.add (q 0)));
  Format.printf "  execution B (all-early): source time there = %s@."
    (Q.to_string (Q.sub (earliest at) (earliest sp)));
  Format.printf "  both are feasible: %b, %b — so no tighter output is sound@."
    (Witness.feasible spec2 view latest)
    (Witness.feasible spec2 view earliest)
