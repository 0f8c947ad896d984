(* The four workloads, their measurement, and the metric table.

   A measurement is one workload in one process, run as rounds until
   [seconds] have passed.  A round sets the system up (a timed batch of
   builds), then drives it for a fixed number of virtual seconds, one
   window per virtual second; round k has its own seed, derived from
   the run's seed.  Fixed-length rounds keep the work per window
   independent of how fast the machine is, and spreading set-ups and
   windows over the whole run keeps a slow phase of the machine from
   deciding a median.

   End-to-end metrics are medians over an untraced run's rounds or
   steady windows (virtual t >= 2 s).  A traced run plays every seed
   twice, untraced then traced, so the per-layer ledger comes from the
   traced rounds and the tracing overhead from identical executions. *)

type fleet = {
  params : Fleet.params;
  converge_by : int;  (* virtual second by which every estimate is finite *)
}

type sim = { scenario : seed:int -> duration:int -> Scenario.t }
type kind = Fleet_w of fleet | Sim_w of sim

type workload = {
  name : string;
  why : string;
  kind : kind;
  round_s : int;  (* virtual seconds per round *)
  setup_batch : int;  (* builds timed together in a round's set-up *)
}

let fleet_params ~clients ~loss ~heartbeat =
  {
    Fleet.clients;
    seed = 7;
    loss;
    heartbeat;
    hi_ms = 50;
    drift_ppm = 500;
    max_offset_ms = 250;
  }

let sim_spec ~links =
  System_spec.uniform ~n:8 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
    ~links

let gossip_ring8 ~seed ~duration =
  {
    (Scenario.default ~spec:(sim_spec ~links:(Topology.ring 8))
       ~traffic:(Scenario.Gossip { mean_gap = Scenario.ms 20 }))
    with
    Scenario.seed;
    duration = Scenario.sec duration;
  }

(* One crash/restart cycle per 10 virtual seconds.  Checkpoints stay in
   memory (the engine's own store, same snapshot and restore path): on
   files, write latency took about a quarter of the wall time and made
   identical rounds differ by +-15%, which measures the file system,
   not the program. *)
let ntp_chaos ~seed ~duration =
  let d = Scenario.sec duration in
  {
    (Scenario.default ~spec:(sim_spec ~links:(Topology.star 8))
       ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
    with
    Scenario.seed;
    duration = d;
    faults =
      Fault.Chaos.schedule ~seed ~nodes:8 ~duration:d
        ~cycles:(max 1 (duration / 10))
        ();
  }

let workloads =
  [
    {
      name = "fleet-128";
      why =
        "128 clients on one hub: O(K) hub work per wakeup and O(K^2) \
         session allocation dominate";
      kind =
        Fleet_w
          {
            params = fleet_params ~clients:128 ~loss:0. ~heartbeat:Q.one;
            converge_by = 2;
          };
      round_s = 6;
      setup_batch = 3;
    };
    {
      name = "fleet-32-lossy";
      why =
        "32 clients, 10% loss: client polls, AGDP and the ack-timeout and \
         retransmit path weigh against cheaper hub scans";
      kind =
        Fleet_w
          {
            params =
              fleet_params ~clients:32 ~loss:0.1 ~heartbeat:(Q.of_ints 1 2);
            (* a client whose hellos are lost backs off; 10% loss can
               push its first estimate past 2 s *)
            converge_by = 10;
          };
      round_s = 20;
      setup_batch = 16;
    };
    {
      name = "sim-gossip-ring8";
      why =
        "simulator, gossip on a ring of 8: no network layers, AGDP insert \
         on the exact-arithmetic path dominates";
      kind = Sim_w { scenario = gossip_ring8 };
      round_s = 5;
      setup_batch = 20;
    };
    {
      name = "sim-ntp-chaos";
      why =
        "simulator, NTP polling on a star of 8 with crash/restart: AGDP at \
         small L beside checkpoint snapshots and recoveries";
      kind = Sim_w { scenario = ntp_chaos };
      round_s = 10;
      setup_batch = 20;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ---- one round ---- *)

type round = {
  traced : bool;
  setup : float;  (* seconds per build, mean of the round's batch *)
  wall : float;  (* the round's run phase *)
  windows : Stat.window list;
  service : float list;
      (* seconds, steady windows only: hub polls that handled a datagram
         (fleets), or each window's wall time per delivery (simulator,
         which serves deliveries back to back in one thread) *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  counts : (string * float) list;  (* identical for identical seeds *)
  extra : (string * float) list;
      (* per-layer numbers the ledger's spans cannot give *)
}

(* A round's set-up: one untimed warm-up build, then [batch] builds timed
   together, each batch from a just-collected heap.  A single build is
   too short to time alone: consecutive builds alternate between a slow
   and a fast heap state, and the first ones of a process touch fresh
   pages. *)
let time_setup ~batch ~drop build =
  drop ();
  Gc.full_major ();
  build ();
  drop ();
  Gc.full_major ();
  let t0 = Ledger.now () in
  for _ = 1 to batch do
    drop ();
    build ()
  done;
  (Ledger.now () -. t0) /. float_of_int batch

let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. 1048576.

let pct_finite l p =
  match List.filter Float.is_finite l with [] -> nan | l -> Stat.pct l p

let fleet_round (w : fleet) ~clients ~round_s ~batch ~seed ~traced =
  let p = { w.params with Fleet.seed; clients } in
  let current = ref None in
  let setup =
    time_setup ~batch
      ~drop:(fun () -> current := None)
      (fun () -> current := Some (Fleet.create ~traced p))
  in
  let f = Option.get !current in
  let heap = if traced then live_heap_mb () else 0. in
  f.Fleet.converge_by <- min round_s w.converge_by;
  let relax0 = Fleet.relaxations f and hits0 = !Fleet.hits in
  let windows = ref [] and wall = ref 0. in
  Ledger.set_on traced;
  for k = 1 to round_s do
    f.Fleet.collect <- k >= Stat.steady_from;
    let d0 = Fleet.delivered f in
    let t0 = Ledger.now () in
    Fleet.run_window f;
    let t1 = Ledger.now () in
    wall := !wall +. (t1 -. t0);
    windows :=
      { Stat.index = k; wall = t1 -. t0; msgs = Fleet.delivered f - d0 }
      :: !windows
  done;
  Ledger.set_on false;
  let s = Fleet.hub_stats f in
  let clients = Array.to_list f.Fleet.clients in
  let sum g = List.fold_left (fun acc c -> acc + g c) 0 clients in
  let uncontained = sum (fun c -> c.Fleet.uncontained) in
  let late_inf = sum (fun c -> c.Fleet.late_infinite) in
  let not_up = sum (fun c -> if Fleet.established c then 0 else 1) in
  let not_conv =
    sum (fun c -> if Float.is_finite c.Fleet.last_width then 0 else 1)
  in
  let loss_path =
    match f.Fleet.metrics with
    | Some m ->
      [
        ("session.retransmits", float_of_int (Metrics.retransmits m));
        ("session.losses", float_of_int (Metrics.losses m));
        ("session.net_drops", float_of_int (Metrics.net_drops m));
      ]
    | None -> []
  in
  let fl = float_of_int in
  {
    traced;
    setup;
    wall = !wall;
    windows = List.rev !windows;
    service = f.Fleet.service;
    attempted = sum (fun c -> c.Fleet.samples) + (2 * p.Fleet.clients);
    failed = uncontained + late_inf + not_up + not_conv;
    checks =
      [
        ("every sample contained the source time", uncontained = 0);
        ( Printf.sprintf "no infinite width at t >= %d s" f.Fleet.converge_by,
          late_inf = 0 );
        ("every client established at the end", not_up = 0);
        ("every client converged at the end", not_conv = 0);
        ("the hub handled frames", s.Hub.frames > 0);
      ];
    counts =
      [
        ("hub.frames", fl s.Hub.frames);
        ("hub.batched", fl s.Hub.batched);
        ("hub.coalesced", fl s.Hub.coalesced);
        ("fabric_delivered", fl (Fleet.delivered f));
        ("fabric_dropped", fl (Fleet.dropped f));
        ("width_p50_ms", 1e3 *. pct_finite f.Fleet.widths 50.);
        ("width_p99_ms", 1e3 *. pct_finite f.Fleet.widths 99.);
        ("agdp.peak_live", fl (Fleet.peak_live f));
        ("history.peak_events", fl (Fleet.peak_history f));
      ]
      @ loss_path;
    extra =
      [
        ("agdp.relaxations", fl (Fleet.relaxations f - relax0));
        ("loopback.hits", fl (!Fleet.hits - hits0));
        ("hub.alloc_bytes", f.Fleet.hub_alloc);
        ("client.alloc_bytes", f.Fleet.client_alloc);
        ("hub.setup_heap_mb", heap);
      ];
  }

let sim_round (w : sim) ~round_s ~batch ~seed ~traced =
  (* set-up is the engine's start at duration zero: nodes, clocks, boot
     checkpoints and the first agenda entries *)
  let setup =
    time_setup ~batch ~drop:ignore (fun () ->
        ignore
          (Engine.run
             { (w.scenario ~seed ~duration:round_s) with Scenario.duration = Q.zero }))
  in
  let a0 = Gc.allocated_bytes () in
  let r = Sim.run_round ~traced (fun () -> w.scenario ~seed ~duration:round_s) in
  let alloc = Gc.allocated_bytes () -. a0 in
  let res = r.Sim.result in
  let nodes g = Array.to_list (Array.map g res.Engine.per_node) in
  let fl = float_of_int in
  {
    traced;
    setup;
    wall = r.Sim.wall;
    windows = r.Sim.windows;
    service =
      List.filter_map
        (fun (w : Stat.window) ->
          if Stat.steady w && w.msgs > 0 then Some (w.wall /. float_of_int w.msgs)
          else None)
        r.Sim.windows;
    attempted = r.Sim.deliveries;
    failed = res.Engine.soundness_failures;
    checks =
      [
        ( "every optimal estimate contained the true time",
          res.Engine.soundness_failures = 0 );
        ("messages were delivered", r.Sim.deliveries > 0);
      ];
    counts =
      [
        ("messages_sent", fl res.Engine.messages_sent);
        ("messages_lost", fl res.Engine.messages_lost);
        ("deliveries", fl r.Sim.deliveries);
        ("checkpoints", fl r.Sim.checkpoints);
        ("width_p50_ms", 1e3 *. pct_finite r.Sim.widths 50.);
        ("width_p99_ms", 1e3 *. pct_finite r.Sim.widths 99.);
        ("agdp.peak_live", fl (List.fold_left max 0 (nodes (fun n -> n.Engine.peak_live))));
        ( "history.peak_events",
          fl (List.fold_left max 0 (nodes (fun n -> n.Engine.peak_history))) );
        ( "agdp.relaxations",
          fl (List.fold_left ( + ) 0 (nodes (fun n -> n.Engine.relaxations))) );
      ];
    extra = [ ("engine.alloc_bytes", alloc) ];
  }

(* ---- metric tables (BENCHMARK.json lists the same; the tests hold
   them equal) ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("msgs_per_s", "1/s");
    ("service_us_p50", "us");
    ("peak_rss_mb", "MB");
  ]

(* What a per-layer metric is computed from: the ledger of the traced
   rounds, their extra sums, and the first traced round's counts. *)
type ledger_view = {
  total : string -> float;  (* summed span durations *)
  self : string -> float;
  calls : string -> float;
  pct_us : string -> float -> float;
  mean_us : string -> float;
  sum : string -> float;  (* over the traced rounds' counts and extras *)
  first : string -> float;  (* first traced round's counts and extras *)
  wall : float;  (* the traced rounds' run phases *)
  residual : float;  (* wall not inside any top-level span *)
  selves : float;  (* every span's self time *)
  overhead : float;
}

let ratio a b = if b > 0. then a /. b else 0.

(* Layers a workload does not run read 0.  In the fleets, "hub." and
   "client." name the side a shared module ran on. *)
let per_layer =
  let busy v = v.total "hub.poll" +. v.total "hub.next_deadline" in
  [
    ("hub.poll_s", "s", fun v -> v.total "hub.poll");
    ("hub.poll_self_s", "s", fun v -> v.self "hub.poll");
    ("hub.wakeups", "count", fun v -> v.calls "hub.poll");
    ("hub.busy_frac", "ratio", fun v -> ratio (busy v) v.wall);
    ("hub.poll_us_p50", "us", fun v -> v.pct_us "hub.poll" 50.);
    ("hub.poll_us_p99", "us", fun v -> v.pct_us "hub.poll" 99.);
    ("hub.next_deadline_s", "s", fun v -> v.total "hub.next_deadline");
    ("hub.next_deadline_us", "us", fun v -> v.mean_us "hub.next_deadline");
    ( "hub.alloc_kb_per_wakeup", "KB",
      fun v -> ratio (v.sum "hub.alloc_bytes" /. 1024.) (v.calls "hub.poll") );
    ("hub.setup_heap_mb", "MB", fun v -> v.first "hub.setup_heap_mb");
    ("hub.frames", "count", fun v -> v.first "hub.frames");
    ("hub.batched", "count", fun v -> v.first "hub.batched");
    ("hub.coalesced", "count", fun v -> v.first "hub.coalesced");
    ("hub.frames_per_busy_s", "1/s", fun v -> ratio (v.sum "hub.frames") (busy v));
    ("loopback.send_s", "s", fun v -> v.total "loopback.send");
    ("loopback.sends", "count", fun v -> v.calls "loopback.send");
    ("loopback.recv_s", "s", fun v -> v.total "loopback.recv");
    ("loopback.recvs", "count", fun v -> v.calls "loopback.recv");
    ( "loopback.recv_hit_frac", "ratio",
      fun v -> ratio (v.sum "loopback.hits") (v.calls "loopback.recv") );
    ("loopback.sched_s", "s", fun v -> v.self "loopback.run_drivers");
    ("client.poll_s", "s", fun v -> v.total "client.poll");
    ("client.poll_self_s", "s", fun v -> v.self "client.poll");
    ("client.poll_us_p50", "us", fun v -> v.pct_us "client.poll" 50.);
    ( "client.alloc_kb_per_poll", "KB",
      fun v -> ratio (v.sum "client.alloc_bytes" /. 1024.) (v.calls "client.poll") );
    ("client.next_deadline_s", "s", fun v -> v.total "client.next_deadline");
    ("session.sample_us", "us", fun v -> v.mean_us "session.sample");
    ("session.retransmits", "count", fun v -> v.first "session.retransmits");
    ("session.losses", "count", fun v -> v.first "session.losses");
    ("session.net_drops", "count", fun v -> v.first "session.net_drops");
    ("codec.encode_s", "s", fun v -> v.total "codec.encode");
    ("codec.decode_s", "s", fun v -> v.total "codec.decode");
    ("codec.encodes", "count", fun v -> v.calls "codec.encode");
    ("codec.decodes", "count", fun v -> v.calls "codec.decode");
    ( "codec.wall_frac", "ratio",
      fun v -> ratio (v.total "codec.encode" +. v.total "codec.decode") v.wall );
    ("agdp.insert_s", "s", fun v -> v.total "agdp.insert");
    ("agdp.inserts", "count", fun v -> v.calls "agdp.insert");
    ("agdp.insert_us_p50", "us", fun v -> v.pct_us "agdp.insert" 50.);
    ("agdp.insert_us_p99", "us", fun v -> v.pct_us "agdp.insert" 99.);
    ("agdp.kill_s", "s", fun v -> v.total "agdp.kill");
    ("agdp.relaxations", "count", fun v -> v.sum "agdp.relaxations");
    ( "agdp.ns_per_relaxation", "ns",
      fun v -> ratio (v.total "agdp.insert" *. 1e9) (v.sum "agdp.relaxations") );
    ("agdp.peak_live", "count", fun v -> v.first "agdp.peak_live");
    ( "agdp.wall_frac", "ratio",
      fun v -> ratio (v.total "agdp.insert" +. v.total "agdp.kill") v.wall );
    ("history.peak_events", "count", fun v -> v.first "history.peak_events");
    ("fault.checkpoint_write_s", "s", fun v -> v.total "fault.checkpoint_write");
    ("fault.checkpoints", "count", fun v -> v.calls "fault.checkpoint_write");
    ("engine.unattributed_s", "s", fun v -> v.self "engine.run");
    ("engine.alloc_mb", "MB", fun v -> v.sum "engine.alloc_bytes" /. 1048576.);
    ("harness.unattributed_s", "s", fun v -> v.residual);
    ("harness.trace_overhead", "ratio", fun v -> v.overhead);
    ("harness.wall_s", "s", fun v -> v.wall);
    ( "harness.ledger_closure", "ratio",
      fun v -> ratio (v.selves +. v.residual) v.wall );
  ]

let per_layer_units = List.map (fun (n, u, _) -> (n, u)) per_layer

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer_units) with
  | Some u -> u
  | None ->
    if String.ends_with ~suffix:"_ms" name then "ms"
    else if String.ends_with ~suffix:"_s" name then "s"
    else "count"

(* ---- one measurement ---- *)

type result = {
  workload : string;
  seed : int;
  traced : bool;
  quick : bool;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (* end-to-end when untraced, per-layer when traced *)
  counts : (string * float) list;  (* round 0's: identical for identical seeds *)
  info : (string * float) list;
  series : (string * float list) list;  (* one value per round *)
}

let correct r = List.for_all snd r.checks && r.failed = 0

let peak_rss_mb () =
  In_channel.with_open_bin "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
        | None -> nan
      in
      go ())

let us x = x *. 1e6

let steady_rates (r : round) = List.map Stat.rate (List.filter Stat.steady r.windows)

(* round k's seed; a traced run plays each seed untraced, then traced *)
let round_seed seed k = if k = 0 then seed else (seed * 1_000_003) + k

let view rounds =
  let traced = List.filter (fun (r : round) -> r.traced) rounds in
  let agg = Ledger.aggregate () in
  let get n = Hashtbl.find_opt agg n in
  let field g n = match get n with Some a -> g a | None -> 0. in
  let total = field (fun a -> a.Ledger.total) in
  let calls = field (fun a -> float_of_int a.Ledger.calls) in
  let wall = List.fold_left (fun acc (r : round) -> acc +. r.wall) 0. traced in
  let rates sel =
    List.concat_map
      (fun (r : round) -> if sel r.traced then steady_rates r else [])
      rounds
  in
  let residual = Float.max 0. (wall -. Ledger.roots_total ()) in
  let number n (r : round) =
    Option.value ~default:0. (List.assoc_opt n (r.counts @ r.extra))
  in
  {
    total;
    self = field (fun a -> a.Ledger.self);
    calls;
    pct_us =
      (fun n p -> field (fun a -> if a.Ledger.durs = [] then 0. else us (Stat.pct a.Ledger.durs p)) n);
    mean_us = (fun n -> if calls n > 0. then us (total n /. calls n) else 0.);
    sum = (fun n -> List.fold_left (fun acc r -> acc +. number n r) 0. traced);
    first = (fun n -> match traced with r :: _ -> number n r | [] -> 0.);
    wall;
    residual;
    selves = Hashtbl.fold (fun _ a acc -> acc +. a.Ledger.self) agg 0.;
    overhead = ratio (Stat.median (rates Fun.id)) (Stat.median (rates not));
  }

let measure ?(quick = false) ~seed ~seconds ~traced w =
  Ledger.reset ();
  let round_s =
    if not quick then w.round_s
    else match w.kind with Fleet_w _ -> 4 | Sim_w _ -> 3
  in
  let round ~seed ~traced =
    match w.kind with
    | Fleet_w fw ->
      let clients = if quick then 8 else fw.params.Fleet.clients in
      fleet_round fw ~clients ~round_s ~batch:w.setup_batch ~seed ~traced
    | Sim_w sw -> sim_round sw ~round_s ~batch:w.setup_batch ~seed ~traced
  in
  let t_run = Ledger.now () in
  (* peak RSS after round 0, a fixed amount of work: the peak over the
     whole run depends on how many rounds a machine fits *)
  let rss = ref nan in
  (* a traced run always finishes the pair it started *)
  let rec go k acc =
    let more =
      k = 0
      || (traced && k mod 2 = 1)
      || ((not quick) && Ledger.now () -. t_run < seconds)
    in
    if not more then List.rev acc
    else begin
      let s = round_seed seed (if traced then k / 2 else k) in
      let r = round ~seed:s ~traced:(traced && k mod 2 = 1) in
      if k = 0 then rss := peak_rss_mb ();
      go (k + 1) (r :: acc)
    end
  in
  let rounds = go 0 [] in
  let run_wall = Ledger.now () -. t_run in
  let sum g = List.fold_left (fun acc r -> acc + g r) 0 rounds in
  let round_service =
    List.map (fun (r : round) -> us (Stat.median r.service)) rounds
  in
  let metrics =
    if not traced then
      [
        ("setup_s", Stat.median (List.map (fun (r : round) -> r.setup) rounds));
        ("msgs_per_s", Stat.median (List.concat_map steady_rates rounds));
        ("service_us_p50", Stat.median round_service);
        ("peak_rss_mb", !rss);
      ]
    else
      let v = view rounds in
      List.map (fun (n, _, f) -> (n, f v)) per_layer
  in
  let closure =
    if traced then
      let c = List.assoc "harness.ledger_closure" metrics in
      [ ("ledger closes within 5% of wall", Float.abs (c -. 1.) <= 0.05) ]
    else []
  in
  let checks =
    List.map
      (fun (name, _) ->
        (name, List.for_all (fun (r : round) -> List.assoc name r.checks) rounds))
      (List.hd rounds).checks
    @ closure
  in
  let all_service = List.concat_map (fun (r : round) -> List.map us r.service) rounds in
  {
    workload = w.name;
    seed;
    traced;
    quick;
    checks;
    attempted = sum (fun (r : round) -> r.attempted);
    failed = sum (fun (r : round) -> r.failed);
    metrics;
    counts = ("virtual_s", float_of_int round_s) :: (List.hd rounds).counts;
    info =
      [
        ("rounds", float_of_int (List.length rounds));
        ("run_wall_s", run_wall);
        ("service_samples", float_of_int (List.length all_service));
        ("service_us_p90", Stat.pct all_service 90.);
        ("service_us_p99", Stat.pct all_service 99.);
        ("spans", float_of_int (Ledger.count ()));
      ];
    series =
      [
        ("setup_s", List.map (fun (r : round) -> r.setup) rounds);
        ( "msgs_per_s",
          List.map (fun r -> Stat.median (steady_rates r)) rounds );
        ("service_us_p50", round_service);
      ];
  }

(* ---- output ---- *)

module J = Json_out

let metric_json metrics =
  J.Obj
    (List.map
       (fun (n, v) ->
         (n, J.Obj [ ("value", J.Float v); ("unit", J.Str (unit_of n)) ]))
       metrics)

let floats l = J.Obj (List.map (fun (n, v) -> (n, J.Float v)) l)

(* the line the benchmark contract reads: the last line of stdout *)
let result_line r =
  J.to_line
    (J.Obj
       [
         ("correct", J.Bool (correct r));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", metric_json r.metrics);
       ])

let record_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("traced", J.Bool r.traced);
      ("quick", J.Bool r.quick);
      ("correct", J.Bool (correct r));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) r.checks));
      ( (if r.traced then "per_layer" else "end_to_end"),
        metric_json r.metrics );
      ("counts", floats r.counts);
      ("info", floats r.info);
      ( "series",
        J.Obj
          (List.map
             (fun (n, l) -> (n, J.List (List.map (fun x -> J.Float x) l)))
             r.series) );
    ]

let metric_lines r =
  List.map
    (fun (n, v) ->
      Printf.sprintf "%s %s %s %s" r.workload n (J.float_repr v) (unit_of n))
    (r.metrics @ r.counts)
