(* Benchmark and experiment harness.

   The paper (PODC '99) is a theory paper with no empirical tables; every
   experiment below regenerates one of its analytical claims on the
   simulated system, as indexed in DESIGN.md / EXPERIMENTS.md:

     E1  optimality: the efficient CSA equals the reference algorithm
     E2  accuracy vs practical baselines (intro / Section 4)
     E3  history-buffer bound |H_v| = O(K1 D)        (Lemma 3.3)
     E4  at-most-once event reporting                (Lemma 3.2)
     E5  AGDP insertion cost O(L^2)                  (Lemma 3.5)
     E6  live points = O(K2 |E|)                     (Lemma 4.1)
     E7  NTP pattern: space O(|E|^2)                 (Corollary 4.1.1)
     E8  probabilistic synchronization pattern       (Section 4)
     E9  message loss                                (Section 3.3)
     uB  Bechamel microbenchmarks of the core operations

   Run all:        dune exec bench/main.exe
   Run a subset:   dune exec bench/main.exe -- E3 E5 uB
   Machine output: dune exec bench/main.exe -- E5 E15 E16 E17 uB --json BENCH_agdp.json

   With [--json FILE] every experiment that ran also lands in FILE as one
   record (schema "clocksync-bench/1", see EXPERIMENTS.md): the wall clock
   is stamped by the runner, and the table-producing experiments push
   their numeric rows via [metric] while they print. *)

module J = Json_out

let q = Q.of_int

(* local readings in ticks: [n] seconds, [n] milliseconds *)
let secs n = n * System_spec.ticks_per_second
let ms_ticks n = n * (System_spec.ticks_per_second / 1000)
let section id title = Format.printf "@.=== %s: %s ===@.@." id title

(* metrics for the current experiment, pushed in display order *)
let current_metrics : (string * J.t) list ref = ref []
let metric key v = current_metrics := (key, v) :: !current_metrics

(* (id, metrics, wall clock seconds), most recent first *)
let json_records : (string * (string * J.t) list * float) list ref = ref []

let timed id f =
  current_metrics := [];
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "[%.1fs]@." dt;
  json_records := (id, List.rev !current_metrics, dt) :: !json_records

let base_spec ?(ppm = 100) ?(lo = Scenario.ms 1) ?(hi = Scenario.ms 10) n links =
  System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm ppm)
    ~transit:(Transit.of_q lo hi) ~links

(* ------------------------------------------------------ timing rounds *)

module Ledger = Bench_suite.Ledger
module Stat = Bench_suite.Stat
module Suite = Bench_suite.Suite

(* The one timing idiom of the throughput experiments.  Each thunk
   returns one sample of its figure (a rate, a wall time); [rounds]
   plays every thunk once per round for at least five rounds, starting
   each round one thunk later than the last so that drift in the
   machine's load reaches every thunk alike, and returns each thunk's
   samples as quartiles, in the thunks' order.  Clocks are read through
   [wall] only, on the benchmark suite's monotonic clock. *)
type spread = { median : float; q1 : float; q3 : float; n : int }

let min_rounds = 5

let spread_of samples =
  let q1, median, q3 = Stat.quartiles samples in
  { median; q1; q3; n = List.length samples }

let rounds ?(n = min_rounds) thunks =
  let thunks = Array.of_list thunks in
  let k = Array.length thunks in
  let samples = Array.make k [] in
  for r = 0 to max n min_rounds - 1 do
    for j = 0 to k - 1 do
      let i = (r + j) mod k in
      samples.(i) <- thunks.(i) () :: samples.(i)
    done
  done;
  Array.map spread_of samples

let wall f =
  let t0 = Ledger.now () in
  f ();
  Ledger.now () -. t0

let calls_per_s reps f =
  float_of_int reps /. wall (fun () -> for _ = 1 to reps do f () done)

(* two figures are told apart only when their interquartile ranges are
   disjoint *)
let overlap a b = not (a.q3 < b.q1 || b.q3 < a.q1)

let spread_json s =
  J.Obj
    [ ("median", J.Float s.median); ("q1", J.Float s.q1); ("q3", J.Float s.q3);
      ("n", J.Int s.n) ]

let spread_cell ?(fmt = Printf.sprintf "%.0f") s =
  Printf.sprintf "%s [%s, %s]" (fmt s.median) (fmt s.q1) (fmt s.q3)

(* ---------------------------------------------------------------- E1 *)

let e1_optimality () =
  section "E1"
    "optimal = reference algorithm, event by event (Thm 2.1, Lemma 3.4)";
  let runs =
    [
      ( "gossip/line4",
        base_spec 4 (Topology.line 4),
        Scenario.Gossip { mean_gap = Scenario.ms 200 } );
      ( "gossip/ring5",
        base_spec 5 (Topology.ring 5),
        Scenario.Gossip { mean_gap = Scenario.ms 250 } );
      ( "poll/star6",
        base_spec 6 (Topology.star 6),
        Scenario.Ntp_poll { period = Scenario.sec 1 } );
      ( "poll/tree7",
        base_spec 7 (Topology.binary_tree 7),
        Scenario.Ntp_poll { period = Scenario.sec 1 } );
    ]
  in
  let rows =
    List.map
      (fun (name, spec, traffic) ->
        let r =
          Engine.run
            {
              (Scenario.default ~spec ~traffic) with
              Scenario.duration = Scenario.sec 15;
              validate = true;
              clock_policy = `Random;
            }
        in
        let opt = List.assoc "optimal" r.Engine.per_algo in
        [
          name;
          string_of_int r.Engine.messages_sent;
          string_of_int opt.Engine.samples;
          string_of_int (Option.value ~default:0 r.Engine.validation_failures);
          Printf.sprintf "%d/%d" opt.Engine.contained opt.Engine.samples;
        ])
      runs
  in
  Table.print
    ~header:[ "scenario"; "messages"; "checks"; "mismatches"; "contained" ]
    rows;
  Format.printf
    "@.every estimate equals the inefficient reference algorithm's output and@.\
     contains the hidden true time: the garbage-collected state loses \
     nothing.@."

(* ---------------------------------------------------------------- E2 *)

let e2_baselines () =
  section "E2"
    "accuracy vs practical algorithms (drift-free+fudge, NTP, Cristian)";
  let spec ppm = base_spec ~ppm 7 (Topology.binary_tree 7) in
  let rows =
    List.concat_map
      (fun ppm ->
        List.map
          (fun period_s ->
            let r =
              Engine.run
                {
                  (Scenario.default ~spec:(spec ppm)
                     ~traffic:
                       (Scenario.Ntp_poll { period = Scenario.sec period_s }))
                  with
                  Scenario.duration = Scenario.sec 30;
                  baselines =
                    [
                      Baseline.Driftfree { window = Scenario.sec 16 };
                      Baseline.Ntp;
                      Baseline.Cristian { rtt = Scenario.ms 25 };
                    ];
                  seed = 5;
                }
            in
            let mean name =
              (List.assoc name r.Engine.per_algo).Engine.mean_width
            in
            let opt = mean "optimal" in
            let cell x =
              if opt > 0. then Printf.sprintf "%s (%.2fx)" (Table.fq x) (x /. opt)
              else Table.fq x
            in
            [
              string_of_int ppm;
              string_of_int period_s;
              Table.fq opt;
              cell (mean "ntp");
              cell (mean "driftfree");
              cell (mean "cristian");
            ])
          [ 1; 4 ])
      [ 10; 100; 1000 ]
  in
  Table.print
    ~header:[ "drift ppm"; "poll s"; "optimal"; "ntp"; "driftfree"; "cristian" ]
    rows;
  Format.printf
    "@.mean interval width (time units); parenthesized: ratio to optimal.@.\
     the gap widens with drift and with poll period — exactly the regime the@.\
     paper targets (drifting clocks, sparse communication).@."

(* ---------------------------------------------------------------- E3 *)

let e3_history () =
  section "E3" "history buffer |H_v| = O(K1 D) (Lemma 3.3)";
  let data =
    List.map
      (fun n ->
        let spec = base_spec n (Topology.ring n) in
        let r =
          Engine.run
            {
              (Scenario.default ~spec
                 ~traffic:(Scenario.Ring_token { gap = Scenario.ms 100 }))
              with
              Scenario.duration = Scenario.sec 20;
            }
        in
        let peak =
          Array.fold_left
            (fun acc ns -> max acc ns.Engine.peak_history)
            0 r.Engine.per_node
        in
        (* with token traffic, K1 = O(n) events system-wide between two
           events at a node; D = n/2 on a ring *)
        let bound = 2 * n * n in
        (n, r.Engine.events_total, peak, bound))
      [ 4; 6; 8; 12; 16 ]
  in
  metric "history"
    (J.List
       (List.map
          (fun (n, events, peak, bound) ->
            J.Obj
              [
                ("n", J.Int n);
                ("events_unbounded", J.Int events);
                ("peak_history", J.Int peak);
                ("bound", J.Int bound);
              ])
          data));
  let rows =
    List.map
      (fun (n, events, peak, bound) ->
        [
          string_of_int n;
          string_of_int (n / 2);
          string_of_int events;
          string_of_int peak;
          string_of_int bound;
          Printf.sprintf "%.2f" (float_of_int peak /. float_of_int bound);
        ])
      data
  in
  Table.print
    ~header:
      [
        "n"; "diameter D"; "events (unbounded)"; "peak |H|"; "2n^2 bound";
        "peak/bound";
      ]
    rows;
  Format.printf
    "@.|H| stays a small fraction of the K1·D-type bound and does not grow@.\
     with execution length (the events column does).@."

(* ---------------------------------------------------------------- E4 *)

let e4_report_once () =
  section "E4" "events reported at most once per link direction (Lemma 3.2)";
  let rows =
    List.map
      (fun (name, links, n, traffic) ->
        let spec = base_spec n links in
        let r =
          Engine.run
            {
              (Scenario.default ~spec ~traffic) with
              Scenario.duration = Scenario.sec 20;
            }
        in
        let reported =
          Array.fold_left
            (fun acc ns -> acc + ns.Engine.events_reported)
            0 r.Engine.per_node
        in
        (* every event can cross each of the |E| links at most once per
           direction *)
        let events_created = 2 * r.Engine.messages_sent in
        let bound = events_created * 2 * List.length links in
        [
          name;
          string_of_int events_created;
          string_of_int reported;
          string_of_int bound;
          Printf.sprintf "%.3f" (float_of_int reported /. float_of_int bound);
        ])
      [
        ( "gossip/ring6",
          Topology.ring 6,
          6,
          Scenario.Gossip { mean_gap = Scenario.ms 100 } );
        ( "poll/star6",
          Topology.star 6,
          6,
          Scenario.Ntp_poll { period = Scenario.ms 500 } );
        ( "poll/grid9",
          Topology.grid 3 3,
          9,
          Scenario.Ntp_poll { period = Scenario.sec 1 } );
      ]
  in
  Table.print
    ~header:
      [ "scenario"; "events"; "reports"; "2|E|*events bound"; "utilization" ]
    rows;
  Format.printf
    "@.total reports stay well under the at-most-once ceiling (the protocol@.\
     also enforces it exactly; see the unit tests).@."

(* ---------------------------------------------------------------- E5 *)

(* synthetic AGDP load shared by E5, the guard and the smoke test:
   maintain exactly [l] live nodes in a sliding chain whose edges all
   weigh 1 s, on a simulator spec's lattice (1/10^10: ppm drift, µs
   ticks); measure relaxations and wall clock per insert *)
let agdp_sliding_window ~l ~inserts =
  let weight = 10_000_000_000 in
  let t = Agdp.create ~scale:weight () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  for k = 1 to l - 1 do
    Agdp.insert t ~key:k ~in_edges:[ (k - 1, weight) ]
      ~out_edges:[ (k - 1, weight) ]
  done;
  let before = Agdp.relaxations t in
  let t0 = Unix.gettimeofday () in
  for k = l to l + inserts - 1 do
    Agdp.insert t ~key:k ~in_edges:[ (k - 1, weight) ]
      ~out_edges:[ (k - 1, weight) ];
    Agdp.kill t (k - l)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let per_insert =
    float_of_int (Agdp.relaxations t - before) /. float_of_int inserts
  in
  (per_insert, Agdp.peak_size t, dt /. float_of_int inserts *. 1e9)

let agdp_insert_metric data =
  metric "agdp_insert"
    (J.List
       (List.map
          (fun (l, per_insert, peak, ns) ->
            J.Obj
              [
                ("live", J.Int l);
                ("peak", J.Int peak);
                ("relaxations_per_insert", J.Float per_insert);
                ("ns_per_insert", J.Float ns);
                ("inserts_per_sec", J.Float (1e9 /. ns));
              ])
          data))

let e5_agdp_cost () =
  section "E5" "AGDP: O(L^2) per insertion (Lemma 3.5 / Ausiello et al.)";
  let data =
    List.map
      (fun l ->
        let per_insert, peak, ns =
          agdp_sliding_window ~l ~inserts:200
        in
        (l, per_insert, peak, ns))
      [ 8; 16; 32; 64; 128 ]
  in
  agdp_insert_metric data;
  let rows =
    List.map
      (fun (l, per_insert, peak, ns) ->
        [
          string_of_int l;
          string_of_int peak;
          Printf.sprintf "%.0f" per_insert;
          Printf.sprintf "%.3f" (per_insert /. float_of_int (l * l));
          Printf.sprintf "%.0f" ns;
        ])
      data
  in
  Table.print
    ~header:[ "live L"; "peak"; "relaxations/insert"; "/(L^2)"; "ns/insert" ]
    rows;
  Format.printf
    "@.relaxations per insertion grow as c*L^2 with a constant c near 1 —@.\
     the quadratic incremental update, independent of total graph age.@."

(* ---------------------------------------------------------------- E6 *)

let e6_live_points () =
  section "E6" "live points = O(K2 |E|) (Lemma 4.1)";
  let data =
    List.map
      (fun (name, n, links) ->
        let spec = base_spec n links in
        let e = List.length links in
        let r =
          Engine.run
            {
              (Scenario.default ~spec
                 ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
              with
              Scenario.duration = Scenario.sec 20;
            }
        in
        let peak =
          Array.fold_left
            (fun acc ns -> max acc ns.Engine.peak_live)
            0 r.Engine.per_node
        in
        (* request/response polling has K2 <= 2 (Section 4) *)
        let bound = (2 * 2 * e) + n in
        (name, n, e, r.Engine.events_total, peak, bound))
      [
        ("star5", 5, Topology.star 5);
        ("tree7", 7, Topology.binary_tree 7);
        ("grid9", 9, Topology.grid 3 3);
        ("ring8", 8, Topology.ring 8);
        ("complete6", 6, Topology.complete 6);
      ]
  in
  metric "live_points"
    (J.List
       (List.map
          (fun (name, n, e, events, peak, bound) ->
            J.Obj
              [
                ("topology", J.Str name);
                ("n", J.Int n);
                ("edges", J.Int e);
                ("events", J.Int events);
                ("peak_live", J.Int peak);
                ("bound", J.Int bound);
              ])
          data));
  let rows =
    List.map
      (fun (name, n, e, events, peak, bound) ->
        [
          name;
          string_of_int n;
          string_of_int e;
          string_of_int events;
          string_of_int peak;
          string_of_int bound;
        ])
      data
  in
  Table.print
    ~header:
      [ "topology"; "n"; "|E|"; "events"; "peak live L"; "2K2|E|+n bound" ]
    rows;
  Format.printf
    "@.the number of live points tracks |E| (messages in flight + last@.\
     points), never the execution length.@."

(* ---------------------------------------------------------------- E7 *)

let e7_ntp_space () =
  section "E7" "NTP communication pattern: space O(|E|^2) (Corollary 4.1.1)";
  let rows =
    List.map
      (fun (levels, width) ->
        let n, links = Topology.ntp_hierarchy ~levels ~width ~fanout:2 in
        let spec = base_spec n links in
        let r =
          Engine.run
            {
              (Scenario.default ~spec
                 ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 2 }))
              with
              Scenario.duration = Scenario.sec 15;
            }
        in
        let e = List.length links in
        let peak_l =
          Array.fold_left
            (fun acc ns -> max acc ns.Engine.peak_live)
            0 r.Engine.per_node
        in
        let peak_h =
          Array.fold_left
            (fun acc ns -> max acc ns.Engine.peak_history)
            0 r.Engine.per_node
        in
        let ceiling = 4 * e in
        (* L <= 2 K2 |E| with K2 = 2 for request/response polling *)
        [
          Printf.sprintf "%dx%d" levels width;
          string_of_int n;
          string_of_int e;
          string_of_int peak_l;
          string_of_int ceiling;
          string_of_int (peak_l * peak_l);
          string_of_int (ceiling * ceiling);
          string_of_int peak_h;
        ])
      [ (1, 3); (2, 3); (3, 3); (2, 6) ]
  in
  Table.print
    ~header:
      [ "strata"; "n"; "|E|"; "peak L"; "L^2 (matrix)"; "|E|^2"; "peak |H|" ]
    rows;
  Format.printf
    "@.the dominant state, the LxL distance matrix, stays below the |E|^2@.\
     ceiling the paper derives for NTP-patterned systems.@."

(* ---------------------------------------------------------------- E8 *)

let e8_probabilistic () =
  section "E8" "probabilistic synchronization pattern (Section 4 / Cristian)";
  let spec = base_spec ~ppm:200 ~hi:(Scenario.ms 15) 4 (Topology.star 4) in
  let rows =
    List.map
      (fun (rtt_ms, target_ms) ->
        let r =
          Engine.run
            {
              (Scenario.default ~spec
                 ~traffic:
                   (Scenario.Burst
                      {
                        check_period = Scenario.sec 2;
                        width_target = Scenario.ms target_ms;
                      }))
              with
              Scenario.duration = Scenario.sec 30;
              baselines = [ Baseline.Cristian { rtt = Scenario.ms rtt_ms } ];
              seed = 3;
            }
        in
        let mean name = (List.assoc name r.Engine.per_algo).Engine.mean_width in
        let peak_l =
          Array.fold_left
            (fun acc ns -> max acc ns.Engine.peak_live)
            0 r.Engine.per_node
        in
        [
          string_of_int rtt_ms;
          string_of_int target_ms;
          string_of_int r.Engine.messages_sent;
          Table.fq (mean "optimal");
          Table.fq (mean "cristian");
          string_of_int peak_l;
        ])
      [ (4, 4); (8, 6); (16, 10); (30, 20) ]
  in
  Table.print
    ~header:
      [
        "accept rtt ms"; "target ms"; "probes"; "optimal width";
        "cristian width"; "peak L";
      ]
    rows;
  Format.printf
    "@.tighter acceptance thresholds need more probes (the bursts of [5]);@.\
     on identical probes the optimal algorithm is consistently tighter, and@.\
     live points stay small — the Section 4 complexity analysis in action.@."

(* ---------------------------------------------------------------- E9 *)

let e9_loss () =
  section "E9" "message loss with a detection oracle (Section 3.3)";
  let spec = base_spec 5 (Topology.star 5) in
  let rows =
    List.map
      (fun loss ->
        let r =
          Engine.run
            {
              (Scenario.default ~spec
                 ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
              with
              Scenario.duration = Scenario.sec 30;
              loss_prob = loss;
              loss_detect = Scenario.ms 200;
              seed = 21;
            }
        in
        let opt = List.assoc "optimal" r.Engine.per_algo in
        let peak_l =
          Array.fold_left
            (fun acc ns -> max acc ns.Engine.peak_live)
            0 r.Engine.per_node
        in
        [
          Printf.sprintf "%.0f%%" (100. *. loss);
          string_of_int r.Engine.messages_sent;
          string_of_int r.Engine.messages_lost;
          Printf.sprintf "%d/%d" opt.Engine.contained opt.Engine.samples;
          Table.fq opt.Engine.mean_width;
          string_of_int peak_l;
        ])
      [ 0.0; 0.05; 0.15; 0.3; 0.5 ]
  in
  Table.print
    ~header:[ "loss"; "sent"; "lost"; "contained"; "mean width"; "peak live L" ]
    rows;
  Format.printf
    "@.correctness is loss-proof; accuracy degrades smoothly; the loss@.\
     oracle keeps dead sends from accumulating as live points.@."

(* ---------------------------------------------------------------- E10 *)

let e10_ablation () =
  section "E10"
    "ablation: garbage-collected CSA vs whole-view reference (motivation)";
  (* Drive both algorithms over one long two-node execution and compare
     the growth of state and of per-event work.  This is the gap between
     the general algorithm of Section 2.3 (state and cost grow with the
     execution) and the paper's algorithm (both stay flat). *)
  let spec =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (q 1) (q 5))
      ~links:[ (0, 1) ]
  in
  let a = Csa.create spec ~me:0 ~lt0:0 in
  let b = Csa.create spec ~me:1 ~lt0:0 in
  let mirror = Mirror.create spec ~me:1 ~lt0:0 in
  let mirror_a = Mirror.create spec ~me:0 ~lt0:0 in
  let msg = ref 0 in
  let rows = ref [] in
  let checkpoints = [ 50; 100; 200; 400; 800 ] in
  let round i =
    let lt0 = secs (20 * i) in
    incr msg;
    let m1 = Csa.send a ~dst:1 ~msg:!msg ~lt:lt0 in
    Mirror.send mirror_a ~payload:m1;
    Csa.receive b ~msg:!msg ~lt:(lt0 + secs 3) m1;
    Mirror.receive mirror ~msg:!msg ~lt:(lt0 + secs 3) ~payload:m1;
    incr msg;
    let m2 = Csa.send b ~dst:0 ~msg:!msg ~lt:(lt0 + secs 4) in
    Mirror.send mirror ~payload:m2;
    Csa.receive a ~msg:!msg ~lt:(lt0 + secs 8) m2;
    Mirror.receive mirror_a ~msg:!msg ~lt:(lt0 + secs 8) ~payload:m2
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let last = ref 0 in
  List.iter
    (fun upto ->
      for i = !last + 1 to upto do
        round i
      done;
      last := upto;
      let view = Mirror.view mirror in
      let _, t_ref =
        time (fun () ->
            Reference.estimate spec view ~at:(Mirror.last_id mirror))
      in
      let _, t_csa = time (fun () -> Csa.estimate b) in
      rows :=
        [
          string_of_int upto;
          string_of_int (View.size view);
          string_of_int (Csa.live_count b + Csa.history_size b);
          Printf.sprintf "%.3f" (t_ref *. 1000.);
          Printf.sprintf "%.3f" (t_csa *. 1000.);
        ]
        :: !rows)
    checkpoints;
  Table.print
    ~header:
      [
        "round trips"; "reference state (events)"; "CSA state (live+|H|)";
        "reference query ms"; "CSA query ms";
      ]
    (List.rev !rows);
  Format.printf
    "@.the reference algorithm's state and query time grow with the@.\
     execution; the paper's algorithm stays flat at identical answers@.\
     (equality is asserted per event in E1 and the test suite).@."

(* ---------------------------------------------------------------- E11 *)

let e11_message_size () =
  section "E11"
    "message size: full-view piggyback (Sec 2.3) vs knowledge frontiers (Sec 3.1)";
  (* identical ping-pong execution driven through both protocols; sizes in
     events and in actual wire bytes (Codec) *)
  let spec =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (q 1) (q 5))
      ~links:[ (0, 1) ]
  in
  let a = Csa.create spec ~me:0 ~lt0:0 in
  let b = Csa.create spec ~me:1 ~lt0:0 in
  let na = Naive.create spec ~me:0 ~lt0:0 in
  let nb = Naive.create spec ~me:1 ~lt0:0 in
  let msg = ref 0 in
  let rows = ref [] in
  let last = ref 0 in
  let last_eff_bytes = ref 0 and last_naive_bytes = ref 0 in
  let last_eff_events = ref 0 and last_naive_events = ref 0 in
  List.iter
    (fun upto ->
      for i = !last + 1 to upto do
        let t0 = secs (20 * i) in
        incr msg;
        let m1 = Csa.send a ~dst:1 ~msg:!msg ~lt:t0 in
        let m1n = Naive.send na ~dst:1 ~msg:!msg ~lt:t0 in
        Csa.receive b ~msg:!msg ~lt:(t0 + secs 3) m1;
        Naive.receive nb ~msg:!msg ~lt:(t0 + secs 3) m1n;
        incr msg;
        let m2 = Csa.send b ~dst:0 ~msg:!msg ~lt:(t0 + secs 4) in
        let m2n = Naive.send nb ~dst:0 ~msg:!msg ~lt:(t0 + secs 4) in
        Csa.receive a ~msg:!msg ~lt:(t0 + secs 8) m2;
        Naive.receive na ~msg:!msg ~lt:(t0 + secs 8) m2n;
        last_eff_bytes := Codec.size m2;
        last_naive_bytes := Codec.size m2n;
        last_eff_events := Payload.size m2;
        last_naive_events := Payload.size m2n
      done;
      last := upto;
      rows :=
        [
          string_of_int upto;
          Printf.sprintf "%d ev / %d B" !last_eff_events !last_eff_bytes;
          Printf.sprintf "%d ev / %d B" !last_naive_events !last_naive_bytes;
          string_of_int (Csa.live_count b + Csa.history_size b);
          string_of_int (Naive.state_size nb);
        ]
        :: !rows)
    [ 10; 50; 100; 200; 400 ];
  Table.print
    ~header:
      [ "round trips"; "efficient message"; "naive message"; "efficient state";
        "naive state" ]
    (List.rev !rows);
  Format.printf
    "@.the frontier protocol sends a constant couple of events per message@.\
     (Theorem 3.6's O(K1 D + delta |V|)); the Section 2.3 algorithm's@.\
     messages and state grow linearly with the execution.  Their answers@.\
     are identical (asserted in the test suite).@."

(* ---------------------------------------------------------------- E12 *)

let e12_delay_policies () =
  section "E12"
    "ablation: delay/drift adversaries vs accuracy (optimality is worst-case)";
  let spec = base_spec 4 (Topology.star 4) in
  let rows =
    List.map
      (fun (name, delay, clock) ->
        let r =
          Engine.run
            {
              (Scenario.default ~spec
                 ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
              with
              Scenario.duration = Scenario.sec 30;
              delay;
              clock_policy = clock;
              seed = 13;
            }
        in
        let opt = List.assoc "optimal" r.Engine.per_algo in
        [
          name;
          string_of_int opt.Engine.samples;
          Printf.sprintf "%d/%d" opt.Engine.contained opt.Engine.samples;
          Table.fq opt.Engine.mean_width;
          Table.fq opt.Engine.max_width;
        ])
      [
        ("fastest delays", `Min, `Random);
        ("slowest delays", `Max, `Random);
        ("alternating (adversarial)", `Alternate, `Adversarial);
        ("uniform random", `Uniform, `Random);
      ]
  in
  Table.print
    ~header:[ "hidden execution"; "samples"; "contained"; "mean width"; "max width" ]
    rows;
  Format.printf
    "@.the algorithm cannot observe the actual delays, only the bounds — yet@.\
     its intervals adapt: fast round trips pin the source tightly, slow or@.\
     adversarial ones cannot be narrowed further (optimality is per-execution).@.\
     containment holds in every regime.@."

(* ---------------------------------------------------------------- E13 *)

let e13_heterogeneous () =
  section "E13"
    "heterogeneous clock classes: accuracy follows the information path";
  (* line: source - good(1ppm) - bad(1000ppm) - good(1ppm) - bad(1000ppm) *)
  let ppm_of = [| 0; 1; 1000; 1; 1000 |] in
  let spec =
    System_spec.make ~n:5 ~source:0
      ~drift:(fun p -> Drift.of_ppm ppm_of.(p))
      ~links:
        (List.map
           (fun (u, v) -> (u, v, Transit.of_q (Scenario.ms 1) (Scenario.ms 10)))
           (Topology.line 5))
  in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 2 }))
        with
        Scenario.duration = Scenario.sec 40;
        baselines = [ Baseline.Ntp ];
        seed = 17;
      }
  in
  let opt = (List.assoc "optimal" r.Engine.per_algo).Engine.final_widths in
  let ntp = (List.assoc "ntp" r.Engine.per_algo).Engine.final_widths in
  let rows =
    List.init 5 (fun p ->
        [
          Printf.sprintf "p%d" p;
          string_of_int ppm_of.(p);
          Table.fq opt.(p);
          Table.fq ntp.(p);
        ])
  in
  Table.print ~header:[ "node"; "drift ppm"; "optimal"; "ntp" ] rows;
  Format.printf
    "@.a stable clock (1 ppm) upstream keeps its subtree accurate between@.\
     polls; a noisy relay (1000 ppm) degrades everyone behind it.  The@.\
     optimal algorithm prices each hop's drift exactly (Definition 2.1's@.\
     per-processor edge weights).@."

(* ---------------------------------------------------------------- E14 *)

let e14_convergence_figure () =
  section "E14" "figure: interval width over time (convergence and re-tightening)";
  let spec = base_spec ~ppm:500 6 (Topology.binary_tree 6) in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 4 }))
        with
        Scenario.duration = Scenario.sec 60;
        baselines =
          [ Baseline.Driftfree { window = Scenario.sec 12 }; Baseline.Ntp ];
        seed = 29;
      }
  in
  let quantum = Q.to_float (System_spec.quantum (System_spec.charge spec)) in
  let series_of name =
    {
      Plot.label = name;
      points =
        (* drop the source's own samples: exact but for the reading
           quantum (DESIGN.md §4), they would squash the log scale *)
        List.filter_map
          (fun (rt, widths) ->
            match List.assoc_opt name widths with
            | Some w when w > quantum -> Some (rt, w)
            | _ -> None)
          r.Engine.series;
    }
  in
  print_string
    (Plot.render ~logy:true ~x_label:"simulated seconds"
       ~y_label:"interval width"
       [ series_of "optimal"; series_of "ntp"; series_of "driftfree" ]);
  Format.printf
    "@.the sawtooth is the drift between polls (500 ppm); each poll snaps the@.\
     estimate back down.  the optimal band sits below ntp at every instant,@.\
     and the drift-free strawman pays its window fudge on top.@."

(* ------------------------------------------------------------ Bechamel *)

let microbenches () =
  section "uB" "microbenchmarks (Bechamel)";
  let open Bechamel in
  let big_a = Bigint.of_string "123456789012345678901234567890123456789" in
  let big_b = Bigint.of_string "987654321098765432109876543210" in
  let q_a = Q.make big_a big_b and q_b = Q.make big_b big_a in
  let bench_bigint_mul =
    Test.make ~name:"bigint_mul" (Staged.stage (fun () -> Bigint.mul big_a big_b))
  in
  let bench_bigint_divmod =
    Test.make ~name:"bigint_divmod"
      (Staged.stage (fun () -> Bigint.divmod big_a big_b))
  in
  let bench_q_add =
    Test.make ~name:"q_add" (Staged.stage (fun () -> Q.add q_a q_b))
  in
  let graph =
    let g = Digraph.create 64 in
    for i = 0 to 62 do
      Digraph.add_edge g i (i + 1) (Q.of_ints 1 (i + 2));
      Digraph.add_edge g (i + 1) i (Q.of_ints 1 (i + 3))
    done;
    for i = 0 to 59 do
      Digraph.add_edge g i (i + 4) (Q.of_ints 3 (i + 2))
    done;
    g
  in
  let bench_bellman_ford =
    Test.make ~name:"bellman_ford_64"
      (Staged.stage (fun () -> Bellman_ford.sssp graph 0))
  in
  let bench_agdp_insert l =
    Test.make ~name:(Printf.sprintf "agdp_insert_L%d" l)
      (Staged.stage
         (let t = Agdp.create ~scale:1 () in
          Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
          for k = 1 to l - 1 do
            Agdp.insert t ~key:k ~in_edges:[ (k - 1, 1) ]
              ~out_edges:[ (k - 1, 1) ]
          done;
          let next = ref l in
          fun () ->
            let k = !next in
            incr next;
            Agdp.insert t ~key:k ~in_edges:[ (k - 1, 1) ]
              ~out_edges:[ (k - 1, 1) ];
            Agdp.kill t (k - l)))
  in
  let bench_csa_round_trip =
    Test.make ~name:"csa_round_trip"
      (Staged.stage
         (let spec = base_spec 2 [ (0, 1) ] in
          (* transit in [1, 10] ms: keep the driven timeline feasible *)
          let a = Csa.create spec ~me:0 ~lt0:0 in
          let b = Csa.create spec ~me:1 ~lt0:0 in
          let msg = ref 0 in
          let iter = ref 0 in
          fun () ->
            incr iter;
            let base = ms_ticks 20 * !iter in
            let at k = base + ms_ticks k in
            incr msg;
            let m1 = Csa.send a ~dst:1 ~msg:(2 * !msg) ~lt:(at 0) in
            Csa.receive b ~msg:(2 * !msg) ~lt:(at 5) m1;
            let m2 = Csa.send b ~dst:0 ~msg:((2 * !msg) + 1) ~lt:(at 6) in
            Csa.receive a ~msg:((2 * !msg) + 1) ~lt:(at 12) m2))
  in
  let tests =
    [
      bench_bigint_mul; bench_bigint_divmod; bench_q_add; bench_bellman_ford;
      bench_agdp_insert 32; bench_agdp_insert 64; bench_agdp_insert 128;
      bench_csa_round_trip;
    ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let data =
    List.concat_map
      (fun test ->
        let results = analyze (benchmark test) in
        Hashtbl.fold
          (fun name ols acc ->
            let ns =
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Some est
              | _ -> None
            in
            (name, ns) :: acc)
          results []
        |> List.sort compare)
      tests
  in
  metric "ns_per_op"
    (J.Obj
       (List.map
          (fun (name, ns) ->
            (name, match ns with Some est -> J.Float est | None -> J.Null))
          data));
  Table.print
    ~header:[ "operation"; "ns/op" ]
    (List.map
       (fun (name, ns) ->
         [
           name;
           (match ns with Some est -> Printf.sprintf "%.0f" est | None -> "n/a");
         ])
       data)

(* ------------------------------------------- E15: net frame throughput *)

(* a single-processor timeline of [l] events ending in the carrying send
   — the shape the full-information protocol piggybacks, at a controlled
   size *)
let synthetic_payload ~events:l =
  let evs =
    List.init l (fun i ->
        let kind =
          if i = l - 1 then Event.Send { msg = 999_999; dst = 1 }
          else if i = 0 then Event.Init
          else if i mod 3 = 0 then Event.Internal
          else Event.Send { msg = i; dst = 1 }
        in
        {
          Event.id = { Event.proc = 0; seq = i };
          lt = ((i * 17) + 1) * 1000;
          kind;
        })
  in
  let send_event = List.nth evs (l - 1) in
  { Payload.send_event; events = evs }

(* the receive path as [Loop.poll] runs it: decode the frame in place
   out of the receive buffer, then decode the borrowed payload slice —
   no intermediate string is ever carved off *)
let e15_decode_once buf ~len =
  match Frame.decode_sub buf ~pos:0 ~len with
  | Ok { Frame.body = Frame.Data { payload; _ }; _ } -> (
    match Codec.decode_slice payload with
    | Ok _ -> ()
    | Error e -> failwith ("E15: payload decode failed: " ^ e))
  | _ -> failwith "E15: frame decode failed"

(* a Data frame carrying a synthetic [events]-event payload, and a
   receive buffer holding it at offset 0 exactly as a datagram would
   sit after [N.recv] *)
let e15_frame ~events =
  let payload =
    Codec.slice_of_string (Codec.encode (synthetic_payload ~events))
  in
  let body = Frame.Data { msg = 1; dst = 0; lost = [ 7; 11; 13 ]; payload } in
  let frame = Frame.encode { Frame.sender = 1; body } in
  let len = String.length frame in
  let rbuf = Bytes.create Frame.max_frame in
  Bytes.blit_string frame 0 rbuf 0 len;
  (body, rbuf, len)

let e15_frame_throughput () =
  section "E15" "net frame codec throughput (whole-frame encode/decode)";
  (* isolate the codec measurement from whatever heap the preceding
     experiments left behind: a retained major heap inflates minor
     collection cost inside the decode loop by ~20% *)
  Gc.compact ();
  let reps = 2_000 in
  let rows =
    List.map
      (fun l ->
        let body, rbuf, bytes = e15_frame ~events:l in
        let a0 = Gc.allocated_bytes () in
        for _ = 1 to reps do
          e15_decode_once rbuf ~len:bytes
        done;
        let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int reps in
        let s =
          rounds
            [
              (fun () ->
                calls_per_s reps (fun () ->
                    ignore (Frame.encode { Frame.sender = 1; body })));
              (fun () ->
                calls_per_s reps (fun () -> e15_decode_once rbuf ~len:bytes));
            ]
        in
        ( J.Obj
            [
              ("payload_events", J.Int l);
              ("frame_bytes", J.Int bytes);
              ("encode_frames_per_s", spread_json s.(0));
              ("decode_frames_per_s", spread_json s.(1));
              ("decode_alloc_bytes_per_frame", J.Float alloc);
            ],
          [ string_of_int l; string_of_int bytes; spread_cell s.(0);
            spread_cell s.(1); Printf.sprintf "%.0f" alloc ] ))
      [ 64; 128 ]
  in
  metric "frame_codec" (J.List (List.map fst rows));
  Table.print
    ~header:
      [ "payload events"; "frame bytes"; "encode frames/s [q1, q3]";
        "decode frames/s [q1, q3]"; "decode alloc B/frame" ]
    (List.map snd rows);
  Format.printf "@.medians [q1, q3] over %d rotated rounds of %d frames each.@."
    min_rounds reps

(* ---------------------------------------- E16: checkpoint throughput *)

(* The checkpoint state of the benchmark's sim-ntp-chaos workload: 8
   processors on a star, polling every 500 ms, here run fault-free for
   10 virtual seconds.  The node with the most live points is kept
   (L = 14, the workload's peak), with the charged spec it restores on. *)
let ntp_star_state () =
  let _, nodes =
    Engine.run_nodes
      { (Suite.ntp_chaos ~seed:7 ~duration:10) with Scenario.faults = [] }
  in
  Array.fold_left
    (fun best (n : Node_rt.t) ->
      if Csa.live_count n.Node_rt.csa > Csa.live_count best then n.Node_rt.csa
      else best)
    nodes.(0).Node_rt.csa nodes

let snapshots_per_s csa = calls_per_s 2_000 (fun () -> ignore (Csa.snapshot csa))

let minor_words_per_snapshot csa =
  let reps = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Csa.snapshot csa))
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let e16_checkpoint_throughput () =
  section "E16"
    "checkpoint path throughput (snapshot/restore + durable store)";
  (* The write-ahead discipline (DESIGN.md Section 9) checkpoints before
     every send, so the snapshot codec and the store sit on the hot path
     of every fault-tolerant deployment.  State size is bounded by
     Theorem 3.6 regardless of execution length, so one state per
     live-set size characterizes the cost: a two-node ping-pong at two
     lengths, and the sim-ntp-chaos workload's star. *)
  let spec = base_spec 2 [ (0, 1) ] in
  let mk_state rounds =
    let a = Csa.create spec ~me:0 ~lt0:0 in
    let b = Csa.create spec ~me:1 ~lt0:0 in
    let msg = ref 0 in
    for i = 1 to rounds do
      let base = ms_ticks 20 * i in
      let at k = base + ms_ticks k in
      incr msg;
      let m1 = Csa.send a ~dst:1 ~msg:(2 * !msg) ~lt:(at 0) in
      Csa.receive b ~msg:(2 * !msg) ~lt:(at 5) m1;
      let m2 = Csa.send b ~dst:0 ~msg:((2 * !msg) + 1) ~lt:(at 6) in
      Csa.receive a ~msg:((2 * !msg) + 1) ~lt:(at 12) m2
    done;
    b
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clocksync_bench_e16_%d" (Unix.getpid ()))
  in
  let names =
    [ "minor_words_per_snapshot"; "snapshot_per_s"; "restore_per_s";
      "store_save_per_s"; "store_load_per_s" ]
  in
  let rows =
    List.map
      (fun (state, csa) ->
        let blob = Csa.snapshot csa in
        let store = Fault.Store.create ~dir ~node:1 in
        Fault.Store.save store blob;
        let s =
          rounds
            [
              (fun () -> minor_words_per_snapshot csa);
              (fun () -> snapshots_per_s csa);
              (fun () ->
                calls_per_s 2_000 (fun () ->
                    ignore (Csa.restore (Csa.spec csa) blob)));
              (fun () -> calls_per_s 500 (fun () -> Fault.Store.save store blob));
              (fun () ->
                calls_per_s 500 (fun () ->
                    match Fault.Store.load_result store with
                    | Ok (Some _) -> ()
                    | _ -> failwith "E16: checkpoint did not load back"));
            ]
        in
        Fault.Store.wipe store;
        let s = Array.to_list s and bytes = String.length blob in
        let live = Csa.live_count csa in
        ( J.Obj
            (("state", J.Str state) :: ("live", J.Int live)
            :: ("blob_bytes", J.Int bytes)
            :: List.map2 (fun n x -> (n, spread_json x)) names s),
          state :: string_of_int live :: string_of_int bytes
          :: List.map spread_cell s ))
      [ ("ping-pong 50", mk_state 50); ("ping-pong 200", mk_state 200);
        ("ntp star 8", ntp_star_state ()) ]
  in
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  metric "checkpoint" (J.List (List.map fst rows));
  Table.print
    ~header:
      [ "state"; "L"; "blob bytes"; "minor words/snapshot"; "snapshot/s";
        "restore/s"; "save/s"; "load/s" ]
    (List.map snd rows);
  Format.printf
    "@.medians [q1, q3] over %d rotated rounds.  The blob does not grow@.\
     with the round count (Theorem 3.6's bound), so checkpointing before@.\
     every send is a fixed cost: O(L²) cells, one varint each, plus the@.\
     history.  The durable store adds one tmp write + rename on top.@."
    min_rounds

(* ------------------------------------ E17: instrumentation overhead *)

let e17_instrumentation_overhead () =
  section "E17"
    "observability overhead (Trace.null vs metrics vs metrics+prof)";
  (* The trace/profiler layer promises to be free when disabled: every
     hot-path site guards on a couple of branches, no clock read, no
     allocation.  Time the benchmark suite's sim-gossip-ring8 round (5
     virtual seconds) under the three sink configurations in rotated
     rounds, then the primitive costs. *)
  let engine_wall sinks () =
    let trace, prof = sinks () in
    wall (fun () ->
        ignore
          (Engine.run
             { (Suite.gossip_ring8 ~seed:7 ~duration:5) with Scenario.trace; prof }))
  in
  let w =
    rounds ~n:15
      [
        engine_wall (fun () -> (Trace.null, Prof.null));
        engine_wall (fun () -> (Metrics.sink (Metrics.create ()), Prof.null));
        engine_wall (fun () ->
            let sink = Metrics.sink (Metrics.create ()) in
            (sink, Prof.make ~now:Unix.gettimeofday ~sink ()));
      ]
  in
  (* primitive costs, ns per call *)
  let ns_per_call calls loop () =
    wall (fun () -> loop calls) *. 1e9 /. float_of_int calls
  in
  let h = Histogram.create () in
  let on_prof = Prof.make ~now:Unix.gettimeofday ~sink:Trace.null () in
  let ns =
    rounds
      [
        ns_per_call 2_000_000 (fun n ->
            for i = 1 to n do
              Histogram.record h (1e-6 *. float_of_int (i land 1023))
            done);
        ns_per_call 10_000_000 (fun n ->
            for _ = 1 to n do
              Prof.stop Prof.null "op" (Prof.start Prof.null)
            done);
        ns_per_call 1_000_000 (fun n ->
            for _ = 1 to n do
              Prof.stop on_prof "op" (Prof.start on_prof)
            done);
      ]
  in
  let ratio i = w.(i).median /. w.(0).median in
  let resolved i = not (overlap w.(i) w.(0)) in
  metric "engine_wall_s"
    (J.Obj
       [
         ("bare", spread_json w.(0));
         ("metrics", spread_json w.(1));
         ("metrics_prof", spread_json w.(2));
         ("metrics_over_bare", J.Float (ratio 1));
         ("metrics_prof_over_bare", J.Float (ratio 2));
         ("metrics_resolved", J.Bool (resolved 1));
         ("metrics_prof_resolved", J.Bool (resolved 2));
       ]);
  metric "primitives_ns"
    (J.Obj
       (List.mapi
          (fun i p -> (p, spread_json ns.(i)))
          [ "histogram_record"; "prof_pair_disabled"; "prof_pair_enabled" ]));
  let ms x = Printf.sprintf "%.1f" (1e3 *. x) in
  Table.print
    ~header:
      [ "configuration"; "engine wall ms [q1, q3]"; "ratio of medians"; "verdict" ]
    (List.mapi
       (fun i name ->
         [ name; spread_cell ~fmt:ms w.(i); Printf.sprintf "%.3f" (ratio i);
           (if i = 0 then ""
            else if resolved i then "resolved"
            else "unresolved (IQRs overlap)") ])
       [ "Trace.null + Prof.null"; "Metrics sink"; "Metrics + profiler" ]);
  Format.printf
    "@.%d rotated rounds.  Primitives (medians): Histogram.record %.0f ns,@.\
     disabled Prof.start/stop pair %.1f ns, enabled pair %.0f ns (two@.\
     clock reads + one Span emit).@."
    w.(0).n ns.(0).median ns.(1).median ns.(2).median

(* ------------------------- E19: hub capacity (the benchmark's fleet) *)

(* One hub, K clients, one deterministic loopback fabric — the
   single-socket NTP-server deployment of DESIGN.md Section 12 — as a
   curve in K at cohort 1 (a private hub session per client).  Each
   point is the benchmark suite's own measurement of its fleet-128
   workload with K clients: an untraced [Suite.measure] for the
   delivery rate and the correctness checks, and a traced one whose
   ledger times the hub apart from the clients and the fabric.  "hub
   us/frame" is hub busy time per hub frame, so it is what one more
   client costs the hub itself; a wakeup ticks and flushes only the
   sessions with work due, so it should stay flat in K. *)
let fleet_seconds = 2.

let fleet_at ~clients ~traced =
  let w = Option.get (Suite.find "fleet-128") in
  let kind =
    match w.Suite.kind with
    | Suite.Fleet_w f ->
      Suite.Fleet_w
        { f with Suite.params = { f.Suite.params with Bench_suite.Fleet.clients } }
    | Suite.Sim_w _ -> invalid_arg "fleet-128 is not a fleet workload"
  in
  Suite.measure ~seed:7 ~seconds:fleet_seconds ~traced { w with Suite.kind }

(* fabric deliveries (both directions) per wall second, one sample per
   round: the median of each round's steady windows *)
let msgs_per_s (r : Suite.result) = spread_of (List.assoc "msgs_per_s" r.Suite.series)

let failed_checks (r : Suite.result) =
  List.filter_map (fun (n, ok) -> if ok then None else Some n) r.Suite.checks

let e19_hub_capacity () =
  section "E19" "hub capacity: one socket, K NTP-pattern clients";
  let data =
    List.map
      (fun clients ->
        let plain = fleet_at ~clients ~traced:false in
        let traced = fleet_at ~clients ~traced:true in
        List.iter
          (fun (r : Suite.result) ->
            if not (Suite.correct r) then
              failwith
                (Printf.sprintf "E19: K=%d failed %d of %d samples; checks: %s"
                   clients r.Suite.failed r.Suite.attempted
                   (String.concat "; " (failed_checks r))))
          [ plain; traced ];
        let layer n = List.assoc n traced.Suite.metrics in
        let count n = List.assoc n plain.Suite.counts in
        let msgs = msgs_per_s plain in
        let hub_us = 1e6 /. layer "hub.frames_per_busy_s" in
        let figures =
          [
            ("hub_us_per_frame", hub_us);
            ("hub_poll_us_p50", layer "hub.poll_us_p50");
            ("setup_heap_kb_per_client",
             1024. *. layer "hub.setup_heap_mb" /. float_of_int clients);
            ("width_p50_ms", count "width_p50_ms");
            ("width_p99_ms", count "width_p99_ms");
          ]
        in
        ( clients,
          hub_us,
          J.Obj
            (("clients", J.Int clients) :: ("msgs_per_s", spread_json msgs)
            :: List.map (fun (n, x) -> (n, J.Float x)) figures),
          string_of_int clients :: spread_cell msgs
          :: List.map (fun (_, x) -> Printf.sprintf "%.2f" x) figures ))
      [ 16; 32; 64; 128; 256 ]
  in
  metric "hub_capacity" (J.List (List.map (fun (_, _, j, _) -> j) data));
  Table.print
    ~header:
      [ "clients"; "msgs/s [q1, q3]"; "hub us/frame"; "hub poll us p50";
        "heap KB/client"; "p50 width ms"; "p99 width ms" ]
    (List.map (fun (_, _, _, row) -> row) data);
  let k0, us0, _, _ = List.hd data in
  let k1, us1, _, _ = List.nth data (List.length data - 1) in
  let ratio = us1 /. us0 in
  Format.printf
    "@.every K measures correct: each client converges to a sound@.\
     estimate through one shared socket (virtual-time fabric, so widths@.\
     are exact).  msgs/s is the median of %.0f s of rounds; hub us/frame@.\
     is from the traced run's ledger.  Hub cost per frame at K=%d is@.\
     %.2fx its K=%d value: %s@."
    fleet_seconds k1 ratio k0
    (* a 16x wider fleet within 1.25x of the cost per frame reads as flat *)
    (if ratio <= 1.25 then
       "a wakeup costs the work due,\nnot a pass over every client."
     else
       "cost per frame grows with K\n\
        (open: ROADMAP item 3, \"Hub cost per frame grows with K\").")

(* --------------------- E20: tournament grid (families x algorithms) *)

(* The full baselines tournament as a throughput measurement: five
   scenario families (static polling, lossy NTP hierarchy, gossip,
   link churn, partition-and-heal), each one seeded execution scoring
   six algorithms on identical messages.  The interesting numbers are
   wall time per family and simulated messages per wall second with
   every algorithm stack enabled — the cost of a full comparison run —
   plus the accuracy gates themselves: the optimal CSA must be sound
   in every cell and must lead every static ranking. *)
let e20_tournament () =
  section "E20" "baselines tournament: scenario families x algorithms";
  let spec =
    { Tourney.default_spec with Tourney.nodes = 6; duration = q 10; seed = 7 }
  in
  let t0 = Unix.gettimeofday () in
  let o = Tourney.run spec in
  let wall = Unix.gettimeofday () -. t0 in
  let families = List.length o.Tourney.duels in
  let cells =
    List.fold_left
      (fun acc fr -> acc + List.length fr.Tourney.cells)
      0 o.Tourney.duels
  in
  let msgs =
    List.fold_left (fun acc fr -> acc + fr.Tourney.messages) 0 o.Tourney.duels
  in
  metric "tournament_grid" (Tourney.json_of_outcome o);
  metric "tournament_throughput"
    (J.Obj
       [
         ("families", J.Int families);
         ("cells", J.Int cells);
         ("messages", J.Int msgs);
         ("grid_wall_s", J.Float wall);
         ("messages_per_wall_s", J.Float (float_of_int msgs /. wall));
       ]);
  print_string (Tourney.render o);
  (match Tourney.check_csa_sound o with
  | Ok () -> ()
  | Error m -> failwith ("E20: " ^ m));
  (match Tourney.check_csa_leads_static o with
  | Ok () -> ()
  | Error m -> failwith ("E20: " ^ m));
  Format.printf
    "@.%d cells across %d families in %.1f s wall (%.0f simulated@.\
     messages/s with all six algorithm stacks enabled); the optimal@.\
     CSA is sound in every cell and leads every static ranking.@."
    cells families wall
    (float_of_int msgs /. wall)

(* ---------------- E21: conformance-monitor overhead (live hub) *)

(* The online protocol monitor (lib/conform) wraps the outermost trace
   sink of peer/hub, checking every event against the Session
   spec's transition relation.  Its budget: a monitored hub must stay
   within 1.05x the wall time of an unmonitored one on a 64-client
   loopback swarm, as a ratio of medians over rotated rounds.  Also
   measured: the monitor's raw per-event check rate on a synthetic
   send/receive stream, which bounds the cost independent of the hub. *)
let e21_monitor_overhead () =
  section "E21" "conformance monitor overhead: monitored vs bare hub";
  let clients = 64 in
  let run sink =
    Gc.compact ();
    wall (fun () ->
        let r =
          Swarm.run_loopback ~seed:7 ~clients ~cohort:4 ~duration:(q 8)
            ~heartbeat:Q.one ~sink ()
        in
        if r.Swarm.converged < clients || r.Swarm.sound < clients then
          failwith "E21: swarm did not fully converge")
  in
  let violations = ref 0 in
  let w =
    rounds ~n:11
      [
        (fun () -> run Trace.null);
        (fun () ->
          let st = Conform.create () in
          let dt = run (Conform.monitor ~state:st Trace.null) in
          violations := !violations + Conform.violations st;
          dt);
      ]
  in
  let bare = w.(0) and monitored = w.(1) in
  let ratio = monitored.median /. bare.median in
  (* raw check rate, alternating sends and receives so both the floor
     table and the accepted-set table are exercised *)
  let n = 200_000 in
  let check_one st i =
    ignore
      (Conform.check st
         (Trace.Send
            { t = float_of_int i; src = 0; dst = 1; msg = i; events = 1;
              bytes = 32 }));
    ignore
      (Conform.check st
         (Trace.Receive { t = float_of_int i; src = 0; dst = 1; msg = i }))
  in
  let checks_per_s =
    (rounds
       [
         (fun () ->
           let st = Conform.create () and i = ref 0 in
           2. *. calls_per_s n (fun () -> incr i; check_one st !i));
       ]).(0)
  in
  let budget = 1.05 in
  let resolved = not (overlap monitored bare) in
  metric "monitor_overhead"
    (J.Obj
       [
         ("clients", J.Int clients);
         ("bare_wall_s", spread_json bare);
         ("monitored_wall_s", spread_json monitored);
         ("ratio_of_medians", J.Float ratio);
         ("resolved", J.Bool resolved);
         ("budget_ratio", J.Float budget);
         ("monitor_checks_per_s", spread_json checks_per_s);
         ("violations", J.Int !violations);
       ]);
  let s3 = Printf.sprintf "%.3f" in
  Table.print
    ~header:[ "hub"; "wall s [q1, q3]"; "ratio of medians"; "budget" ]
    [
      [ "bare"; spread_cell ~fmt:s3 bare; "1.000"; "" ];
      [ "monitored"; spread_cell ~fmt:s3 monitored; s3 ratio;
        Printf.sprintf "%.2f" budget ];
    ];
  Format.printf "%d rotated rounds; monitor raw rate: %.2e checks/s (median)@."
    bare.n checks_per_s.median;
  if !violations > 0 then
    failwith
      (Printf.sprintf "E21: monitored hub reported %d protocol violations"
         !violations);
  if ratio > budget then
    failwith
      (Printf.sprintf
         "E21: monitored hub at %.3fx the bare median wall time (budget %.2fx)"
         ratio budget);
  Format.printf "@.%s@."
    (if resolved then
       Printf.sprintf
         "the monitored hub runs at %.3fx the bare one, within the %.2fx\n\
          budget: the per-event check is two hashtable probes on the hot\n\
          path, so the fabric and session work dominates."
         ratio budget
     else
       Printf.sprintf
         "unresolved: the interquartile ranges overlap, so the %.3fx ratio\n\
          of medians is inside the noise (and within the %.2fx budget)."
         ratio budget)

(* ------------------------------------------------ bench-guard (CI) *)

(* Conservative throughput floors for `make bench-guard` / CI, each read
   as a median: of five rotated rounds (AGDP, decode) or of the
   benchmark suite's rounds (hub).  Five guard runs on a shared 2-vCPU
   Xeon measured:
   - [Agdp] on L = 128 sliding-window inserts: 19300-32300 inserts/s,
     so a floor of 5000/s fails a regression of about 4x or worse;
   - in-place decode (frame + payload) of a 64-event frame: 62000-87600
     frames/s against a 30k floor, failing any reintroduced per-frame
     copy or per-byte bigint arithmetic (the pre-slice string decoder
     ran ~17k);
   - the hub, as E19's K = 256 point: fleet-128's workload with 256
     clients must measure correct and keep its fabric deliveries (both
     directions, so about twice the hub's frames) at 20300-29300/s.
     The 6000/s floor is 3.5x below their median, and a hub that ticks,
     flushes and scans every session on each wakeup, or whose sessions
     carry a history frontier per spec neighbor, handled ~290 hub
     frames/s (~600 deliveries/s);
   - [Csa.snapshot] of the sim-ntp-chaos star state (L = 14, E16's last
     row): 38100-54800 snapshots/s against a 25k floor.  Snapshots that
     turned every cell back into a reduced rational and wrote it as two
     bigints ran 11300-16200/s and fail it. *)
let guard_floor_ips = 5000.
let guard_floor_decode = 30_000.
let guard_floor_hub = 6000.
let guard_floor_snapshot = 25_000.

let guard () =
  section "guard" "throughput floors: AGDP, decode, checkpoint, hub";
  let l = 128 in
  let _, rbuf, len = e15_frame ~events:64 in
  let star = ntp_star_state () in
  let s =
    rounds
      [
        (fun () ->
          let _, _, ns = agdp_sliding_window ~l ~inserts:100 in
          1e9 /. ns);
        (fun () ->
          Gc.compact ();
          calls_per_s 2_000 (fun () -> e15_decode_once rbuf ~len));
        (fun () -> snapshots_per_s star);
      ]
  in
  let ips = s.(0) and dec_fps = s.(1) and snap = s.(2) in
  let hub_clients = 256 in
  let hub = fleet_at ~clients:hub_clients ~traced:false in
  let hub_msgs = msgs_per_s hub in
  metric "bench_guard"
    (J.Obj
       [
         ("live", J.Int l);
         ("inserts_per_sec", spread_json ips);
         ("floor_inserts_per_sec", J.Float guard_floor_ips);
         ("decode_frames_per_sec", spread_json dec_fps);
         ("floor_decode_frames_per_sec", J.Float guard_floor_decode);
         ("snapshot_live", J.Int (Csa.live_count star));
         ("snapshots_per_sec", spread_json snap);
         ("floor_snapshots_per_sec", J.Float guard_floor_snapshot);
         ("hub_clients", J.Int hub_clients);
         ("hub_correct", J.Bool (Suite.correct hub));
         ("hub_msgs_per_s", spread_json hub_msgs);
         ("floor_hub_msgs_per_s", J.Float guard_floor_hub);
       ]);
  Format.printf "L=%d agdp: %s inserts/s (floor %.0f)@." l (spread_cell ips)
    guard_floor_ips;
  Format.printf "decode: %s frames/s at 64 events (floor %.0f)@."
    (spread_cell dec_fps) guard_floor_decode;
  Format.printf "checkpoint: %s snapshots/s at L=%d (floor %.0f)@."
    (spread_cell snap) (Csa.live_count star) guard_floor_snapshot;
  Format.printf "hub: K=%d %s, %s msgs/s (floor %.0f)@." hub_clients
    (if Suite.correct hub then "correct" else "INCORRECT")
    (spread_cell hub_msgs) guard_floor_hub;
  Format.printf "medians [q1, q3] over %d rounds (hub: %d rounds)@." ips.n
    hub_msgs.n;
  if ips.median < guard_floor_ips then
    failwith
      (Printf.sprintf
         "bench-guard: %.0f agdp inserts/s at L=%d is below the %.0f floor"
         ips.median l guard_floor_ips);
  if dec_fps.median < guard_floor_decode then
    failwith
      (Printf.sprintf
         "bench-guard: %.0f decoded frames/s is below the %.0f floor"
         dec_fps.median guard_floor_decode);
  if snap.median < guard_floor_snapshot then
    failwith
      (Printf.sprintf
         "bench-guard: %.0f snapshots/s at L=%d is below the %.0f floor"
         snap.median (Csa.live_count star) guard_floor_snapshot);
  if not (Suite.correct hub) then
    failwith
      (Printf.sprintf "bench-guard: hub at K=%d failed %d of %d samples; checks: %s"
         hub_clients hub.Suite.failed hub.Suite.attempted
         (String.concat "; " (failed_checks hub)));
  if hub_msgs.median < guard_floor_hub then
    failwith
      (Printf.sprintf "bench-guard: %.0f hub msgs/s is below the %.0f floor"
         hub_msgs.median guard_floor_hub)

(* --------------------------------------------------------------- smoke *)

(* A sub-second slice of E5 plus two trivial thunks through [rounds],
   wired into `dune runtest` (see bench/dune) so the JSON trajectory
   emitter and the timing helper's record are exercised on every test
   run; not part of the default experiment sweep. *)
let smoke () =
  section "smoke" "sub-second E5 slice and timing rounds (exercise --json)";
  let data =
    List.map
      (fun l ->
        let per_insert, peak, ns =
          agdp_sliding_window ~l ~inserts:50
        in
        (l, per_insert, peak, ns))
      [ 8; 16 ]
  in
  List.iter
    (fun (l, per_insert, peak, _) ->
      if per_insert <= 0. || peak < l then
        failwith (Printf.sprintf "smoke: bad AGDP measurement at L=%d" l))
    data;
  agdp_insert_metric data;
  let timing =
    Array.to_list
      (Array.map spread_json
         (rounds
            [
              (fun () -> wall ignore);
              (fun () -> calls_per_s 100 (fun () -> ignore (Sys.opaque_identity [ 1 ])));
            ]))
  in
  List.iter
    (fun record ->
      let field k =
        match record with
        | J.Obj fields -> List.assoc_opt k fields
        | _ -> None
      in
      match (field "median", field "q1", field "q3", field "n") with
      | Some (J.Float m), Some (J.Float q1), Some (J.Float q3), Some (J.Int n)
        when q1 <= m && m <= q3 && n >= min_rounds -> ()
      | _ -> failwith "smoke: a timing record lacks q1 <= median <= q3 or n")
    timing;
  metric "timing_rounds" (J.List timing);
  Table.print
    ~header:[ "live L"; "relaxations/insert" ]
    (List.map
       (fun (l, per_insert, _, _) ->
         [ string_of_int l; Printf.sprintf "%.0f" per_insert ])
       data)

(* ------------------------------------------------------------------ *)

let all =
  [
    ("E1", e1_optimality);
    ("E2", e2_baselines);
    ("E3", e3_history);
    ("E4", e4_report_once);
    ("E5", e5_agdp_cost);
    ("E6", e6_live_points);
    ("E7", e7_ntp_space);
    ("E8", e8_probabilistic);
    ("E9", e9_loss);
    ("E10", e10_ablation);
    ("E11", e11_message_size);
    ("E12", e12_delay_policies);
    ("E13", e13_heterogeneous);
    ("E14", e14_convergence_figure);
    ("E15", e15_frame_throughput);
    ("E16", e16_checkpoint_throughput);
    ("E17", e17_instrumentation_overhead);
    ("E19", e19_hub_capacity);
    ("E20", e20_tournament);
    ("E21", e21_monitor_overhead);
    ("uB", microbenches);
  ]

(* runnable by name but excluded from the no-argument sweep *)
let extras = [ ("smoke", smoke); ("guard", guard) ]

let () =
  let rec parse args (ids, json) =
    match args with
    | [] -> (List.rev ids, json)
    | "--json" :: path :: rest -> parse rest (ids, Some path)
    | [ "--json" ] ->
      prerr_endline "main: --json requires a file argument";
      exit 2
    | id :: rest -> parse rest (id :: ids, json)
  in
  let ids, json_path = parse (List.tl (Array.to_list Sys.argv)) ([], None) in
  let wanted = match ids with [] -> List.map fst all | ids -> ids in
  Format.printf
    "clocksync benchmark harness — reproducing the claims of@.\"Optimal and \
     Efficient Clock Synchronization Under Drifting Clocks\"@.(Ostrovsky & \
     Patt-Shamir, PODC 1999). See EXPERIMENTS.md.@.";
  let failed = ref [] in
  List.iter
    (fun id ->
      match List.assoc_opt id (all @ extras) with
      | Some f -> (
        (* a failing experiment (e.g. the guard floor) must not lose the
           JSON of the ones that already ran *)
        try timed id f
        with Failure msg ->
          Format.printf "FAILED %s: %s@." id msg;
          json_records := (id, [ ("error", J.Str msg) ], 0.) :: !json_records;
          failed := id :: !failed)
      | None ->
        Format.printf "unknown experiment %s (known: %s)@." id
          (String.concat " " (List.map fst (all @ extras))))
    wanted;
  (match json_path with
  | None -> ()
  | Some path ->
    let experiments =
      List.rev_map
        (fun (id, metrics, dt) ->
          J.Obj (("id", J.Str id) :: ("wall_clock_s", J.Float dt) :: metrics))
        !json_records
    in
    J.write path
      (J.Obj
         [
           ("schema", J.Str "clocksync-bench/1");
           ("source", J.Str "bench/main.exe");
           ("experiments", J.List experiments);
         ]);
    Format.printf "wrote %s@." path);
  if !failed <> [] then exit 1


