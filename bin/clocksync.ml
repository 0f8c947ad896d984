(* clocksync — command-line front end for the simulator.

   Subcommands:
     run    simulate a scenario and print per-algorithm accuracy/resources
     sweep  sweep one parameter (nodes, drift, loss, period) and tabulate

   Examples:
     clocksync run --topology star --nodes 6 --traffic poll --duration 30
     clocksync run --topology ntp:3x3 --algos ntp,driftfree --loss 0.2
     clocksync sweep --param drift --values 10,100,1000 --traffic poll *)

open Cmdliner

let parse_topology s ~nodes =
  match String.split_on_char ':' s with
  | [ "line" ] -> Ok (nodes, Topology.line nodes)
  | [ "ring" ] -> Ok (nodes, Topology.ring nodes)
  | [ "star" ] -> Ok (nodes, Topology.star nodes)
  | [ "tree" ] -> Ok (nodes, Topology.binary_tree nodes)
  | [ "complete" ] -> Ok (nodes, Topology.complete nodes)
  | [ "grid"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ w; h ] -> (
      try
        let w = int_of_string w and h = int_of_string h in
        Ok (w * h, Topology.grid w h)
      with _ -> Error (`Msg "grid dimensions must be WxH"))
    | _ -> Error (`Msg "grid dimensions must be WxH"))
  | [ "ntp"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ levels; width ] -> (
      try
        let levels = int_of_string levels and width = int_of_string width in
        let n, links = Topology.ntp_hierarchy ~levels ~width ~fanout:2 in
        Ok (n, links)
      with _ -> Error (`Msg "ntp dimensions must be LEVELSxWIDTH"))
    | _ -> Error (`Msg "ntp dimensions must be LEVELSxWIDTH"))
  | [ "random" ] ->
    let rng = Rng.create 99 in
    Ok (nodes, Topology.random_connected rng ~n:nodes ~extra:2)
  | _ ->
    Error
      (`Msg
        "unknown topology (line|ring|star|tree|complete|grid:WxH|ntp:LxW|random)")

let parse_traffic s ~period =
  match s with
  | "poll" -> Ok (Scenario.Ntp_poll { period })
  | "gossip" -> Ok (Scenario.Gossip { mean_gap = Q.div_int period 4 })
  | "token" -> Ok (Scenario.Ring_token { gap = Q.div_int period 10 })
  | "burst" ->
    Ok (Scenario.Burst { check_period = period; width_target = Scenario.ms 5 })
  | _ -> Error (`Msg "unknown traffic (poll|gossip|token|burst)")

(* --algos, shared by run, sweep and tournament: "all", or a comma list
   to which the always-scored optimal CSA is added *)
let parse_algos s =
  if s = "all" then Tourney.algo_names
  else
    let a = String.split_on_char ',' s |> List.map String.trim in
    if List.mem "optimal" a then a else "optimal" :: a

let build_scenario ~topology ~nodes ~traffic ~duration ~drift_ppm ~lo_ms ~hi_ms
    ~period_s ~loss ~seed ~algos ~validate =
  let ( let* ) = Result.bind in
  let* baselines =
    Result.map_error (fun m -> `Msg m) (Baseline.of_names (parse_algos algos))
  in
  (* refuse what would hang the engine (a zero period schedules traffic
     forever at one instant) or trip an Invalid_argument deep inside it *)
  let require ok msg = if ok then Ok () else Error (`Msg msg) in
  let period_ms =
    if Float.is_nan period_s then 0 else int_of_float (period_s *. 1000.)
  in
  let* () = require (nodes >= 1) "--nodes must be at least 1" in
  let* n, links = parse_topology topology ~nodes in
  let* () = require (duration >= 0) "--duration must not be negative" in
  let* () =
    require (drift_ppm >= 0 && drift_ppm < 1_000_000)
      "--drift must be in [0, 1000000) ppm"
  in
  let* () = require (lo_ms >= 0) "--min-delay must not be negative" in
  let* () =
    require (hi_ms >= lo_ms) "--max-delay must be at least --min-delay"
  in
  let* () = require (period_ms >= 1) "--period must be at least 0.001 s" in
  let* () = require (loss >= 0. && loss <= 1.) "--loss must be in [0, 1]" in
  let spec =
    System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm drift_ppm)
      ~transit:(Transit.of_q (Scenario.ms lo_ms) (Scenario.ms hi_ms))
      ~links
  in
  let period = Q.of_ints period_ms 1000 in
  let* traffic = parse_traffic traffic ~period in
  Ok
    {
      (Scenario.default ~spec ~traffic) with
      Scenario.duration = Scenario.sec duration;
      seed;
      loss_prob = loss;
      baselines;
      validate;
    }

let print_result r =
  Format.printf "simulated %s time units; %d messages (%d lost); %d events@.@."
    (Q.to_string r.Engine.rt_end) r.Engine.messages_sent r.Engine.messages_lost
    r.Engine.events_total;
  let rows =
    List.map
      (fun (name, a) ->
        [
          name;
          string_of_int a.Engine.samples;
          Printf.sprintf "%d/%d" a.Engine.contained a.Engine.samples;
          Table.fq a.Engine.mean_width;
          Table.fq a.Engine.max_width;
        ])
      r.Engine.per_algo
  in
  Table.print
    ~header:[ "algorithm"; "samples"; "contained"; "mean width"; "max width" ]
    rows;
  Format.printf "@.per-node resources (optimal algorithm):@.";
  let rows =
    Array.to_list
      (Array.mapi
         (fun p ns ->
           [
             Printf.sprintf "p%d" p;
             string_of_int ns.Engine.peak_live;
             string_of_int ns.Engine.peak_history;
             string_of_int ns.Engine.events_processed;
             string_of_int ns.Engine.relaxations;
           ])
         r.Engine.per_node)
  in
  Table.print
    ~header:[ "node"; "peak L"; "peak |H|"; "events"; "oracle relaxations" ]
    rows;
  (match r.Engine.validation_failures with
  | Some f when f > 0 ->
    Format.printf "@.VALIDATION FAILURES: %d@." f;
    exit 1
  | _ -> ());
  if r.Engine.soundness_failures > 0 then begin
    Format.printf "@.SOUNDNESS FAILURES: %d@." r.Engine.soundness_failures;
    exit 1
  end

(* ---- shared options ---- *)

let topology =
  Arg.(value & opt string "star" & info [ "topology"; "t" ] ~docv:"TOPO"
         ~doc:"Topology: line|ring|star|tree|complete|grid:WxH|ntp:LxW|random.")

let nodes =
  Arg.(value & opt int 5 & info [ "nodes"; "n" ] ~docv:"N"
         ~doc:"Number of processors (ignored for grid/ntp topologies).")

let traffic =
  Arg.(value & opt string "poll" & info [ "traffic" ] ~docv:"PATTERN"
         ~doc:"Traffic pattern: poll|gossip|token|burst.")

let duration =
  Arg.(value & opt int 30 & info [ "duration"; "d" ] ~docv:"SECONDS"
         ~doc:"Simulated real-time duration.")

let drift_ppm =
  Arg.(value & opt int 100 & info [ "drift" ] ~docv:"PPM"
         ~doc:"Clock drift bound in parts per million.")

let lo_ms =
  Arg.(value & opt int 1 & info [ "min-delay" ] ~docv:"MS"
         ~doc:"Link transit lower bound (milliseconds).")

let hi_ms =
  Arg.(value & opt int 10 & info [ "max-delay" ] ~docv:"MS"
         ~doc:"Link transit upper bound (milliseconds).")

let period_s =
  Arg.(value & opt float 1.0 & info [ "period" ] ~docv:"SECONDS"
         ~doc:"Traffic period (poll interval / burst check period).")

let loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P"
         ~doc:"Per-message loss probability (Section 3.3).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let algos_opt ~default ~verb ~past =
  Arg.(value & opt string default & info [ "algos" ] ~docv:"A1,A2,.."
         ~doc:(Printf.sprintf
                 "Comma-separated algorithms to %s \
                  (optimal|driftfree|ntp|cristian|ftsp|marzullo), or \
                  $(b,all).  The optimal CSA is always %s." verb past))

let run_algos = algos_opt ~default:"optimal" ~verb:"run" ~past:"run"

let validate_flag =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Check every estimate against the reference optimal algorithm \
               (slow).")

let csv_prefix =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PREFIX"
         ~doc:"Write PREFIX-series.csv, PREFIX-nodes.csv and \
               PREFIX-summary.csv with the run's data.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the run's structured event stream to FILE as JSON \
               Lines — one object per send/receive/loss/estimate/\
               validation/liveness/oracle event, closed by a summary \
               object aggregating the whole stream (see DESIGN.md for \
               the schema).")

(* ---- run ---- *)

(* The shared observability harness of run, peer and hub: one
   JSONL sink with a summary trailer (closed even on exceptions — the
   stream is mirrored to disk and aggregated a second time independently
   of the engine, so the trailing summary line is computed from exactly
   what was written, and a partial trace is still a valid one), plus an
   optional wall-clock profiler and a Metrics aggregate the caller can
   expose live ([live_metrics] forces aggregation even without a trace
   file, for --stat-port).  An unwritable trace or flight path is an
   [Error] before [f] runs. *)
let with_obs ?(profile = false) ?(live_metrics = false) ?(monitor = false)
    ?flight trace f =
  match
    (* the flight dump writes [path ^ ".tmp"] then renames: probe that
       file now, so a bad path fails here rather than silently at every
       cadenced dump *)
    Option.iter
      (fun path ->
        let tmp = path ^ ".tmp" in
        close_out (open_out_bin tmp);
        Sys.remove tmp)
      flight;
    Option.map (fun path -> (path, open_out path)) trace
  with
  | exception Sys_error m -> Error ("cannot write " ^ m)
  | out ->
  let m = Metrics.create () in
  let msink = Metrics.sink m in
  let mk_prof sink =
    if profile then Prof.make ~now:Unix.gettimeofday ~sink () else Prof.null
  in
  (* flight recorder: an always-cheap ring of the last events, re-dumped
     atomically on a cadence (and on any monitor violation), so a
     kill -9 leaves a bounded decodable artifact even with no --trace *)
  let flight = Option.map (fun path -> (Flight.create ~capacity:512 (), path)) flight in
  let flight_dump () =
    Option.iter
      (fun (fr, path) -> try Flight.dump fr path with Sys_error _ -> ())
      flight
  in
  let add_flight sink =
    match flight with
    | None -> sink
    | Some (fr, _) ->
      Trace.tee sink
        (Trace.callback (fun ev ->
             Flight.record fr ev;
             (* re-dump on a cadence well under the ring capacity so a
                kill -9 mid-run still leaves a recent window on disk *)
             if Flight.recorded fr mod 64 = 0 then flight_dump ()))
  in
  (* the conformance monitor wraps the outermost sink: every event is
     forwarded then checked, and violations are emitted back into the
     same stream (JSONL + metrics + flight) as typed events.  When off,
     the sink is simply not wrapped — zero cost, like Prof.null. *)
  let add_monitor sink =
    if not monitor then sink
    else Conform.monitor ~on_violation:(fun _ _ -> flight_dump ()) sink
  in
  let finish () =
    (match flight with
    | Some (fr, path) when Flight.recorded fr > 0 -> (
      match Flight.dump fr path with
      | () -> Format.printf "wrote %s@." path
      | exception Sys_error e -> Format.eprintf "flight dump failed: %s@." e)
    | _ -> ());
    Option.iter
      (fun (path, oc) ->
        output_string oc (Json_out.to_line (Metrics.summary_json m));
        output_char oc '\n';
        close_out oc;
        Format.printf "wrote %s@." path)
      out
  in
  let base =
    match out with
    | Some (_, oc) -> Trace.tee (Trace.jsonl oc) msink
    | None -> if profile || live_metrics || monitor then msink else Trace.null
  in
  let sink = add_monitor (add_flight base) in
  Ok (Fun.protect ~finally:finish (fun () -> f ~sink ~prof:(mk_prof sink) ~metrics:m))

let or_error = function Ok r -> r | Error m -> `Error (false, m)

let chaos_opt =
  Arg.(value & opt int 0 & info [ "chaos" ] ~docv:"CYCLES"
         ~doc:"Inject CYCLES random crash/restart cycles (never the \
               source), drawn from the run's seed; crashed nodes recover \
               from write-ahead checkpoints (see DESIGN.md, \"Fault model \
               & recovery\").")

let prof_flag =
  Arg.(value & flag & info [ "prof" ]
         ~doc:"Time hot-path operations (AGDP insert/kill, codec \
               encode/decode, checkpoint writes) as span events and dump \
               per-operation latency histograms as a Prometheus text \
               exposition after the run.  With --trace, the spans also \
               land in the JSONL stream.")

let run_cmd =
  let action topology nodes traffic duration drift_ppm lo_ms hi_ms period_s
      loss seed algos validate chaos csv trace profile =
    match
      build_scenario ~topology ~nodes ~traffic ~duration ~drift_ppm ~lo_ms
        ~hi_ms ~period_s ~loss ~seed ~algos ~validate
    with
    | Error (`Msg m) -> `Error (false, m)
    | Ok scenario when chaos > 0 && validate ->
      ignore scenario;
      `Error (false, "--chaos cannot be combined with --validate: the \
                      full-view mirror does not survive crashes")
    | Ok scenario ->
      let scenario =
        if chaos = 0 then scenario
        else
          {
            scenario with
            Scenario.faults =
              Fault.Chaos.schedule ~seed ~nodes:(System_spec.n scenario.Scenario.spec)
                ~duration:scenario.Scenario.duration ~cycles:chaos ();
          }
      in
      match
        with_obs ~profile trace (fun ~sink ~prof ~metrics ->
            let r =
              Engine.run { scenario with Scenario.trace = sink; prof }
            in
            (r, if profile then Some (Expo.render metrics) else None))
      with
      | Error m -> `Error (false, m)
      | Ok (r, expo) ->
        Option.iter
          (fun text -> Format.printf "# metrics exposition@.%s@." text)
          expo;
        print_result r;
        Option.iter
          (fun prefix ->
            Export.write_file ~path:(prefix ^ "-series.csv") (Export.series_csv r);
            Export.write_file ~path:(prefix ^ "-nodes.csv") (Export.nodes_csv r);
            Export.write_file ~path:(prefix ^ "-summary.csv")
              (Export.summary_csv r);
            Format.printf "@.wrote %s-{series,nodes,summary}.csv@." prefix)
          csv;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ topology $ nodes $ traffic $ duration $ drift_ppm
       $ lo_ms $ hi_ms $ period_s $ loss $ seed $ run_algos $ validate_flag
       $ chaos_opt $ csv_prefix $ trace_file $ prof_flag))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one scenario and print accuracy/resources.")
    term

(* ---- sweep ---- *)

let sweep_cmd =
  let param =
    Arg.(value & opt string "drift" & info [ "param" ] ~docv:"PARAM"
           ~doc:"Swept parameter: drift|nodes|loss|period.")
  in
  let values =
    Arg.(value & opt string "10,100,1000" & info [ "values" ] ~docv:"V1,V2,.."
           ~doc:"Comma-separated values for the swept parameter.")
  in
  let action param values topology nodes traffic duration drift_ppm lo_ms hi_ms
      period_s loss seed algos =
    let vals = String.split_on_char ',' values in
    let build v =
      let nodes, drift_ppm, loss, period_s =
        match param with
        | "drift" -> (nodes, int_of_string v, loss, period_s)
        | "nodes" -> (int_of_string v, drift_ppm, loss, period_s)
        | "loss" -> (nodes, drift_ppm, float_of_string v, period_s)
        | "period" -> (nodes, drift_ppm, loss, float_of_string v)
        | _ -> failwith "unknown sweep parameter (drift|nodes|loss|period)"
      in
      build_scenario ~topology ~nodes ~traffic ~duration ~drift_ppm ~lo_ms
        ~hi_ms ~period_s ~loss ~seed ~algos ~validate:false
    in
    try
      let rows =
        List.map
          (fun v ->
            match build v with
            | Error (`Msg m) -> failwith m
            | Ok scenario ->
              let r = Engine.run scenario in
              let opt = List.assoc "optimal" r.Engine.per_algo in
              let peak_l =
                Array.fold_left
                  (fun acc ns -> max acc ns.Engine.peak_live)
                  0 r.Engine.per_node
              in
              v
              :: string_of_int r.Engine.messages_sent
              :: Printf.sprintf "%d/%d" opt.Engine.contained opt.Engine.samples
              :: Table.fq opt.Engine.mean_width
              :: string_of_int peak_l
              :: List.concat_map
                   (fun (name, a) ->
                     if name = "optimal" then []
                     else [ name ^ "=" ^ Table.fq a.Engine.mean_width ])
                   r.Engine.per_algo)
          vals
      in
      Table.print
        ~header:[ param; "messages"; "contained"; "optimal width"; "peak L";
                  "baselines" ]
        rows;
      `Ok ()
    with Failure m -> `Error (false, m)
  in
  let term =
    Term.(
      ret
        (const action $ param $ values $ topology $ nodes $ traffic $ duration
       $ drift_ppm $ lo_ms $ hi_ms $ period_s $ loss $ seed $ run_algos))
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep one parameter and tabulate results.") term

(* ---- peer / hub: the socket runtime ---- *)

module Unet = Loop.Make (Udp)

let q_of_float_s f = Q.of_ints (int_of_float (f *. 1_000_000.)) 1_000_000

let port_opt =
  Arg.(value & opt int 9460 & info [ "port" ] ~docv:"PORT"
         ~doc:"UDP port to bind — 0 picks a free port.")

let net_nodes =
  Arg.(value & opt int 3 & info [ "nodes"; "n" ] ~docv:"N"
         ~doc:"Total processors in the system spec (reference node is \
               processor 0; peers take ids 1..N-1).  Every participant \
               must agree on this — it is part of the hello digest.")

let net_drift =
  Arg.(value & opt int 500 & info [ "drift" ] ~docv:"PPM"
         ~doc:"Specified clock drift bound; peers' --skew-ppm must stay \
               within it or the intervals are no longer guaranteed sound.")

let net_hi_ms =
  Arg.(value & opt int 250 & info [ "max-delay" ] ~docv:"MS"
         ~doc:"Specified one-way transit upper bound.  Must genuinely \
               bound the real network (generous for localhost).")

let net_duration =
  Arg.(value & opt float 15.0 & info [ "duration"; "d" ] ~docv:"SECONDS"
         ~doc:"How long to run before saying bye.")

let net_sample =
  Arg.(value & opt float 1.0 & info [ "sample" ] ~docv:"SECONDS"
         ~doc:"Interval between printed estimate samples.")

let net_heartbeat =
  Arg.(value & opt float 0.5 & info [ "heartbeat" ] ~docv:"SECONDS"
         ~doc:"Data cadence per established peer.")

let net_drop =
  Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P"
         ~doc:"Inject receive-side loss with this probability (testing \
               the Section 3.3 ack/retransmit machinery without tc).")

let checkpoint_opt =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR"
         ~doc:"Durable state directory.  The session checkpoints through \
               $(docv) before every data frame and every ack (write-ahead \
               — see DESIGN.md); on startup, an existing checkpoint is \
               restored and the node re-handshakes with its dedup floors \
               and pending loss verdicts intact, so a kill -9 at any \
               instant is recoverable.")

(* Local times are process-relative (Udp.wall rebases to a per-process
   epoch), but a restored session's clock must continue past its
   snapshot — so the epoch is part of the durable state.  Pin it from
   the checkpoint directory before the first clock reading, or persist
   the fresh one beside the node checkpoints (atomic rename, same crash
   discipline as Fault.Store). *)
let pin_epoch = function
  | None -> Ok ()
  | Some dir ->
    let file = Filename.concat dir "epoch" in
    (match In_channel.with_open_text file In_channel.input_all with
    | s -> (
      match int_of_string_opt (String.trim s) with
      | Some e ->
        Udp.set_epoch e;
        Ok ()
      | None -> Error (file ^ ": malformed wall epoch (wipe the \
                               checkpoint directory to start fresh)"))
    | exception Sys_error _ ->
      let rec mkdir_p d =
        if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
        else begin
          mkdir_p (Filename.dirname d);
          try Unix.mkdir d 0o755
          with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        end
      in
      mkdir_p dir;
      let tmp = file ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          Out_channel.output_string oc (string_of_int (Udp.epoch ())));
      Sys.rename tmp file;
      Ok ())

(* Build a session, through the checkpoint store when one is asked for:
   the node's own store, or for a hub cohort [(idx, members)] one store
   per cohort keyed by its index.  A corrupt checkpoint is a refusal, not
   a silent fresh start: rebooting amnesiac after having participated
   would re-issue event sequence numbers peers already hold. *)
let mk_session ~sink ~prof ~checkpoint ?cohort cfg ~now =
  let peers = Option.map snd cohort in
  let fresh () = Session.create ~sink ~prof ?peers cfg ~now in
  match checkpoint with
  | None -> Ok (fresh ())
  | Some dir ->
    let node, who =
      match cohort with
      | None -> (cfg.Session.me, "")
      | Some (idx, _) -> (idx, Printf.sprintf "cohort %d " idx)
    in
    let store = Fault.Store.create ~dir ~node in
    let attach session =
      Session.set_checkpoint session (Fault.Store.save store);
      Ok session
    in
    (match Fault.Store.load_result store with
    | Error m -> Error (who ^ "checkpoint unusable (wipe it to start fresh): " ^ m)
    | Ok None ->
      if cohort = None then
        Format.printf "checkpointing to %s@." (Fault.Store.path store);
      attach (fresh ())
    | Ok (Some blob) -> (
      match Session.restore ~sink ~prof ?peers cfg ~now blob with
      | Error m -> Error (who ^ m)
      | Ok session ->
        Trace.emit sink
          (Trace.Recover { t = Q.to_float now; node = cfg.Session.me });
        Format.printf "%srecovered from checkpoint %s@." who
          (Fault.Store.path store);
        attach session))

let stat_port_opt =
  Arg.(value & opt (some int) None & info [ "stat-port" ] ~docv:"PORT"
         ~doc:"Serve live metrics as a Prometheus text exposition on TCP \
               $(docv) (loopback; 0 picks a free port) — curl it while \
               the node runs.  Implies hot-path profiling, so \
               per-operation latency histograms are included.")

let monitor_flag =
  Arg.(value & flag & info [ "monitor" ]
         ~doc:"Fold the Session conformance monitor over the live trace \
               stream (lib/conform: the executable protocol spec).  A \
               violated rule is emitted as a typed protocol_violation \
               trace event, counted in the metrics (and the --stat-port \
               exposition), dumped to the --flight recorder, and makes \
               the process exit nonzero.")

let flight_opt =
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
         ~doc:"Crash flight recorder: keep the last 512 trace events in \
               a ring and re-dump them atomically to $(docv) on a \
               cadence, on any --monitor violation, and at exit — a \
               kill -9 leaves a bounded decodable artifact even when \
               --trace is off (binary format; see DESIGN.md §15).")

(* shared exit gate for --monitor runs: any violation the live monitor
   flagged turns an otherwise-clean exit into a failure *)
let monitor_verdict ~monitor ~metrics ok =
  match ok with
  | `Ok () when monitor && Metrics.protocol_violations metrics > 0 ->
    `Error
      ( false,
        Printf.sprintf "%d protocol violation(s) flagged by the live monitor"
          (Metrics.protocol_violations metrics) )
  | r -> r

(* the live stat endpoint, polled from the drive loop; [None] when
   --stat-port was not given *)
let mk_stats ~stat_port ~metrics =
  Option.map
    (fun port ->
      let srv =
        Stat_server.create ~port ~render:(fun () -> Expo.render metrics) ()
      in
      Format.printf "metrics exposition on http://127.0.0.1:%d/metrics@."
        (Stat_server.port srv);
      srv)
    stat_port

(* the options peer and hub share *)
type runtime = {
  nodes : int;
  drift_ppm : int;
  hi_ms : int;
  duration : float;
  sample : float;
  heartbeat : float;
  drop : float;
  seed : int;
  checkpoint : string option;
  trace : string option;
  stat_port : int option;
  monitor : bool;
  flight : string option;
}

let runtime =
  let mk nodes drift_ppm hi_ms duration sample heartbeat drop seed checkpoint
      trace stat_port monitor flight =
    { nodes; drift_ppm; hi_ms; duration; sample; heartbeat; drop; seed;
      checkpoint; trace; stat_port; monitor; flight }
  in
  Term.(
    const mk $ net_nodes $ net_drift $ net_hi_ms $ net_duration $ net_sample
    $ net_heartbeat $ net_drop $ seed $ checkpoint_opt $ trace_file
    $ stat_port_opt $ monitor_flag $ flight_opt)

(* What a subcommand plugs into the shared runtime once its socket and
   session config exist. *)
type node = {
  poll : max_wait:Q.t -> unit;
  print : now:Q.t -> unit;  (** one periodic sample line *)
  finished : unit -> bool;  (** stop before the deadline *)
  stop : now:Q.t -> unit;  (** say bye; a last poll flushes it *)
  report : unit -> (unit, string) result;  (** the closing verdict *)
}

(* Observability, spec, epoch pin, socket, session config, stat server,
   the drive loop and the monitor verdict — everything peer and hub
   share.  [setup] builds the node; the loop then polls until the
   wall deadline, printing every --sample seconds and serving the stat
   endpoint at least every 0.2 s. *)
let run_node rt ~me ?offset ?rate ~port setup =
  or_error
  @@ with_obs ~profile:(rt.stat_port <> None)
       ~live_metrics:(rt.stat_port <> None) ~monitor:rt.monitor
       ?flight:rt.flight rt.trace
  @@ fun ~sink ~prof ~metrics ->
  match pin_epoch rt.checkpoint with
  | Error m -> `Error (false, m)
  | Ok () ->
    let spec =
      Swarm.star_spec ~nodes:rt.nodes ~drift_ppm:rt.drift_ppm ~hi_ms:rt.hi_ms
    in
    let net =
      Udp.create ?offset ?rate ~drop:rt.drop ~seed:(rt.seed + me) ~port ()
    in
    let cfg =
      {
        (Session.default_config ~me ~spec) with
        Session.heartbeat = q_of_float_s rt.heartbeat;
      }
    in
    let result =
      Result.bind (setup ~sink ~prof ~net ~spec ~cfg) (fun node ->
          match mk_stats ~stat_port:rt.stat_port ~metrics with
          | exception Unix.Unix_error (e, _, _) ->
            Error ("stat-port: " ^ Unix.error_message e)
          | stats ->
            let start = Udp.now net in
            let deadline = Q.add start (q_of_float_s rt.duration) in
            let every = q_of_float_s rt.sample in
            let next_sample = ref (Q.add start every) in
            let rec go () =
              Option.iter Stat_server.poll stats;
              let now = Udp.now net in
              if Q.(now < deadline) && not (node.finished ()) then begin
                if Q.(now >= !next_sample) then begin
                  node.print ~now;
                  next_sample := Q.add now every
                end;
                node.poll
                  ~max_wait:
                    (Q.min
                       (Q.min (Q.sub deadline now)
                          (Q.max Q.zero (Q.sub !next_sample now)))
                       (Q.of_ints 1 5));
                go ()
              end
            in
            go ();
            node.stop ~now:(Udp.now net);
            node.poll ~max_wait:Q.zero;
            Option.iter Stat_server.close stats;
            node.report ())
    in
    Udp.close net;
    monitor_verdict ~monitor:rt.monitor ~metrics
      (match result with Ok () -> `Ok () | Error m -> `Error (false, m))

let peer_cmd =
  let server =
    Arg.(value & opt string "127.0.0.1:9460" & info [ "server" ]
           ~docv:"HOST:PORT" ~doc:"The $(b,clocksync hub)'s address.")
  in
  let id =
    Arg.(value & opt int 1 & info [ "id" ] ~docv:"ID"
           ~doc:"This peer's processor id (1..N-1; unique per peer).")
  in
  let offset_ms =
    Arg.(value & opt int 0 & info [ "offset-ms" ] ~docv:"MS"
           ~doc:"Emulated initial clock offset.")
  in
  let skew_ppm =
    Arg.(value & opt int 0 & info [ "skew-ppm" ] ~docv:"PPM"
           ~doc:"Emulated clock rate error (must stay within --drift).")
  in
  let action server id offset_ms skew_ppm rt =
    match Udp.addr_of_string server with
    | Error m -> `Error (false, m)
    | Ok server_addr ->
      if id < 1 || id >= rt.nodes then
        `Error (false, "peer id must be in 1..nodes-1")
      else if abs skew_ppm > rt.drift_ppm then
        `Error (false, "--skew-ppm exceeds the --drift bound: the \
                        resulting intervals would be unsound")
      else
        let rate = Q.add Q.one (Q.of_ints skew_ppm 1_000_000) in
        run_node rt ~me:id ~offset:(Scenario.ms offset_ms) ~rate ~port:0
        @@ fun ~sink ~prof ~net ~spec:_ ~cfg ->
        Format.printf
          "clocksync peer: processor %d of %d -> %s (offset %d ms, \
           skew %d ppm)@."
          id rt.nodes server offset_ms skew_ppm;
        Result.map
          (fun session ->
            let loop = Unet.create ~prof ~net ~session () in
            Unet.learn loop ~peer:0 server_addr;
            let samples = ref 0 and finite = ref 0 and uncontained = ref 0 in
            let print ~now =
              (* on localhost every process shares the wall clock, and
                 the hub runs offset 0 / rate 1: the wall clock IS the
                 source's local time, so soundness is checkable end to
                 end *)
              let truth = Udp.wall () in
              let est = Session.sample session ~now ~truth () in
              let w =
                match Interval.width est with
                | Ext.Fin w -> Q.to_float w
                | Ext.Inf -> infinity
              in
              let ok = Interval.mem truth est in
              incr samples;
              if Float.is_finite w then incr finite;
              if not ok then incr uncontained;
              Format.printf
                "lt=%10.3f  source time in %s  width=%s  contained=%s@."
                (Q.to_float now)
                (Interval.to_string_approx est)
                (if Float.is_finite w then Printf.sprintf "%.6f" w else "inf")
                (if ok then "yes" else "NO")
            in
            let report () =
              Format.printf
                "peer %d done: %d samples, %d finite, %d containment \
                 failures@."
                id !samples !finite !uncontained;
              if !uncontained > 0 then
                Error "soundness violated: some intervals missed the \
                       source time"
              else if !finite = 0 then Error "never converged to a finite interval"
              else Ok ()
            in
            { poll = Unet.poll loop; print; finished = (fun () -> false);
              stop = Session.stop session; report })
          (mk_session ~sink ~prof ~checkpoint:rt.checkpoint cfg
             ~now:(Udp.now net))
  in
  Cmd.v
    (Cmd.info "peer"
       ~doc:
         "Run one peer processor against a $(b,clocksync hub) (the \
          source), printing live optimal offset intervals (and checking, \
          on localhost, that each interval contains the hub's true \
          time).")
    Term.(ret (const action $ server $ id $ offset_ms $ skew_ppm $ runtime))

(* ---- hub / swarm: one socket, thousands of clients ---- *)

let cohort_opt =
  Arg.(value & opt int 8 & info [ "cohort" ] ~docv:"C"
         ~doc:"Clients per cohort: each cohort shares one session (one \
               history, one AGDP matrix) across its members.  1 \
               degenerates to a private session per client.")

let hub_cmd =
  let action port cohort rt =
    if rt.nodes < 2 then `Error (false, "need at least 2 nodes")
    else if cohort < 1 then `Error (false, "--cohort must be >= 1")
    else
      run_node rt ~me:0 ~port @@ fun ~sink ~prof ~net ~spec ~cfg ->
      let start = Udp.now net in
      Option.iter
        (fun dir -> Format.printf "checkpointing cohorts to %s@." dir)
        rt.checkpoint;
      Result.map
        (fun hub ->
          Format.printf
            "clocksync hub: processor 0 of %d, %s; %d clients in %d \
             cohorts of <= %d@."
            rt.nodes
            (Udp.string_of_addr (Udp.loopback (Udp.port net)))
            (Swarm.Uhub.clients hub) (Swarm.Uhub.cohorts hub) cohort;
          let print ~now =
            let st = Swarm.Uhub.stats hub in
            Swarm.Uhub.emit_stats hub ~now;
            Format.printf
              "t=%6.2f  clients up: %d/%d  frames %d (batched %d, \
               coalesced %d)@."
              (Q.to_float (Q.sub now start))
              st.Hub.established st.Hub.clients st.Hub.frames st.Hub.batched
              st.Hub.coalesced
          in
          let all_done () = Swarm.Uhub.all_clients_done hub in
          let stop ~now =
            print ~now;
            Swarm.Uhub.stop hub ~now
          in
          let report () =
            Format.printf "hub done (%s)@."
              (if all_done () then "all clients came up and said bye"
               else "duration elapsed");
            Ok ()
          in
          { poll = Swarm.Uhub.poll hub; print; finished = all_done; stop; report })
        (Swarm.Uhub.create ~sink ~prof ~net ~spec ~cohort_size:cohort
           ~mk_session:(fun ~idx ~members ->
             mk_session ~sink ~prof ~checkpoint:rt.checkpoint
               ~cohort:(idx, members) cfg ~now:start)
           ())
  in
  Cmd.v
    (Cmd.info "hub"
       ~doc:
         "Run the reference node (processor 0, the time source) as a \
          single-socket hub serving clients 1..N-1 on a UDP port, \
          sharded into cohorts that share per-cohort protocol state.  \
          Drive it with $(b,clocksync peer) processes or a $(b,clocksync \
          swarm).")
    Term.(ret (const action $ port_opt $ cohort_opt $ runtime))

(* print the swarm's outcome; every client must have converged soundly *)
let swarm_verdict (r : Swarm.report) =
  Format.printf
    "swarm: %d clients — %d established, %d converged, %d sound@."
    r.Swarm.clients r.Swarm.established r.Swarm.converged r.Swarm.sound;
  if Array.length r.Swarm.widths > 0 then
    Format.printf
      "final widths (s): p50=%.6f p90=%.6f p99=%.6f max=%.6f@."
      (Swarm.p_width r 50.) (Swarm.p_width r 90.) (Swarm.p_width r 99.)
      (Swarm.p_width r 100.);
  Option.iter
    (fun (st : Hub.stats) ->
      Format.printf
        "hub: %d frames handled (batched %d, coalesced %d), %.0f frames/s \
         wall@."
        st.Hub.frames st.Hub.batched st.Hub.coalesced
        (if r.Swarm.elapsed_wall > 0. then
           float_of_int st.Hub.frames /. r.Swarm.elapsed_wall
         else 0.))
    r.Swarm.hub;
  Format.printf "wall time %.2f s@." r.Swarm.elapsed_wall;
  if r.Swarm.sound < r.Swarm.clients then
    `Error (false, "soundness violated: some intervals missed the source time")
  else if r.Swarm.converged < r.Swarm.clients then
    `Error (false, "not every client converged to a finite interval")
  else `Ok ()

let swarm_cmd =
  let clients_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"CLIENTS"
           ~doc:"Number of swarm clients to run in this process.")
  in
  let server =
    Arg.(value & opt (some string) None & info [ "server" ] ~docv:"HOST:PORT"
           ~doc:"Drive a real $(b,clocksync hub) over UDP at $(docv).  \
                 Without it the swarm runs hub and clients in-process on \
                 the deterministic loopback fabric.")
  in
  let max_offset_ms =
    Arg.(value & opt int 250 & info [ "max-offset" ] ~docv:"MS"
           ~doc:"Client initial offsets are drawn from [0, $(docv)].")
  in
  let action clients server nodes drift_ppm hi_ms duration sample heartbeat
      drop seed cohort max_offset_ms trace =
    if clients < 1 then `Error (false, "need at least 1 client")
    else
      let duration = q_of_float_s duration
      and sample = q_of_float_s sample
      and heartbeat = q_of_float_s heartbeat in
      match server with
      | None ->
        (or_error @@ with_obs trace @@ fun ~sink ~prof:_ ~metrics:_ ->
            Format.printf
              "loopback swarm: %d clients, cohorts of %d, loss %.2f@."
              clients cohort drop;
            let r =
              Swarm.run_loopback ~seed ~loss:drop ~cohort ~duration ~sample
                ~heartbeat ~drift_ppm ~hi_ms ~max_offset_ms ~sink ~clients
                ()
            in
            swarm_verdict r)
      | Some server -> (
        match Udp.addr_of_string server with
        | Error m -> `Error (false, m)
        | Ok server_addr ->
          if nodes < clients + 1 then
            `Error (false, "--nodes must exceed the client count (and \
                            match the hub's)")
          else
            (or_error @@ with_obs trace @@ fun ~sink ~prof:_ ~metrics:_ ->
                Format.printf "udp swarm: %d clients -> %s@." clients server;
                let r =
                  Swarm.run_udp ~seed ~drop ~duration ~sample ~heartbeat
                    ~drift_ppm ~hi_ms ~max_offset_ms ~sink ~nodes ~clients
                    ~server_addr ()
                in
                swarm_verdict r))
  in
  let term =
    Term.(
      ret
        (const action $ clients_arg $ server $ net_nodes $ net_drift
       $ net_hi_ms $ net_duration $ net_sample $ net_heartbeat $ net_drop
       $ seed $ cohort_opt $ max_offset_ms $ trace_file))
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Run CLIENTS NTP-pattern clients with seeded offsets and skews \
          in one process — against an in-process hub on the deterministic \
          loopback fabric (default), or against a real $(b,clocksync \
          hub) over UDP with $(b,--server).")
    term

(* ---- analyze ---- *)

let analyze_cmd =
  let trace_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.jsonl"
           ~doc:"A trace written by $(b,run)/$(b,peer)/$(b,hub) \
                 $(b,--trace) (a crash-truncated one is fine), or a \
                 $(i,.flight) crash-recorder dump written by \
                 $(b,--flight).")
  in
  let require_estimates =
    Arg.(value & flag & info [ "require-estimates" ]
           ~doc:"Fail when the trace contains no estimate samples (smoke \
                 tests use this to catch runs that silently never \
                 converged).")
  in
  let conform =
    Arg.(value & flag & info [ "conform" ]
           ~doc:"Replay the trace against the executable Session protocol \
                 spec (lib/conform) and fail on the first violating \
                 event, reporting its rule and the monitor state at that \
                 step.  Works on trailerless crash-victim traces too.")
  in
  let action path require_estimates conform =
    if Filename.check_suffix path ".flight" then begin
      (* a flight-recorder dump: a bounded binary ring of the run's last
         events, left behind by --flight even when JSONL tracing was off
         or the process was kill -9'd.  No summary trailer to check; the
         FNV-1a total in the dump already vouched for integrity in
         Flight.load.  Conformance replays in suffix mode: the window
         may open mid-protocol, so rules needing pre-window history are
         lifted. *)
      match Flight.load path with
      | Error m -> `Error (false, "flight dump: " ^ m)
      | Ok events ->
        let metrics = Metrics.create () in
        let sink = Metrics.sink metrics in
        List.iter (Trace.emit sink) events;
        Format.printf "flight dump: %d events decoded (last-events ring)@."
          (List.length events);
        ignore require_estimates;
        if not conform then `Ok ()
        else begin
          match Conform.run ~suffix:true events with
          | Some r ->
            print_endline (Conform.render_report r);
            `Error (false, "flight dump violates the Session protocol spec")
          | None ->
            Format.printf "conformance: %d events replayed clean (suffix mode)@."
              (List.length events);
            `Ok ()
        end
    end
    else
    match Analysis.read path with
    | Error m -> `Error (false, m)
    | Ok a ->
      print_string (Analysis.render a);
      let conform_failure =
        if not conform then None
        else
          match Conform.run a.Analysis.events with
          | Some r ->
            print_newline ();
            print_endline (Conform.render_report r);
            Some "trace violates the Session protocol spec"
          | None ->
            Format.printf "@.conformance: %d events replayed clean@."
              (List.length a.Analysis.events);
            None
      in
      if a.Analysis.bad <> [] then
        `Error
          ( false,
            Printf.sprintf "%d unparseable line(s)"
              (List.length a.Analysis.bad) )
      else begin
        match Analysis.summary_matches a with
        | Error m -> `Error (false, "summary trailer mismatch: " ^ m)
        | Ok () ->
          if require_estimates && Analysis.estimate_samples a = 0 then
            `Error (false, "trace contains no estimate samples")
          else if Metrics.soundness_failures a.Analysis.metrics > 0 then
            `Error
              ( false,
                Printf.sprintf
                  "%d soundness failure(s): optimal estimates missed the \
                   true source time"
                  (Metrics.soundness_failures a.Analysis.metrics) )
          else
            match conform_failure with
            | Some m -> `Error (false, m)
            | None -> `Ok ()
      end
  in
  let term =
    Term.(ret (const action $ trace_arg $ require_estimates $ conform))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct a run offline from its $(b,--trace) JSONL stream: \
          convergence timeline, per-peer session health, checkpoint \
          overhead and hot-path span profile.  Every line is re-parsed \
          and the aggregates are recomputed independently; when the \
          trace carries a summary trailer the recomputation must match \
          it byte for byte.")
    term

(* ---- tournament ---- *)

let tournament_cmd =
  let families_opt =
    Arg.(value & opt string "all" & info [ "families" ] ~docv:"F1,F2,.."
           ~doc:"Comma-separated scenario families to run \
                 (static|ntp-poll|gossip|churn|partition-heal), or \
                 $(b,all).")
  in
  let trace_dir_opt =
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR"
           ~doc:"Write each family's full event stream to \
                 DIR/<family>.jsonl (the $(b,run --trace) format, \
                 accepted by $(b,analyze)).")
  in
  let json_opt =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the grid as one JSON document to FILE.")
  in
  let assert_sound =
    Arg.(value & flag & info [ "assert-sound" ]
           ~doc:"Fail unless the optimal CSA is sound in every cell \
                 (sampled, and every interval contained true time).")
  in
  let assert_leads =
    Arg.(value & flag & info [ "assert-leads-static" ]
           ~doc:"Fail if any baseline strictly beats the optimal CSA on \
                 median width in a static (clean) family.")
  in
  let action nodes duration seed families algos trace_dir json assert_sound
      assert_leads =
    let split s = String.split_on_char ',' s |> List.map String.trim in
    let families =
      if families = "all" then Ok Tourney.all_families
      else
        List.fold_right
          (fun name acc ->
            Result.bind acc (fun fs ->
                Result.map (fun f -> f :: fs) (Tourney.family_of_name name)))
          (split families) (Ok [])
    in
    match families with
    | Error m -> `Error (false, m)
    | Ok families -> (
      let algos = parse_algos algos in
      let spec =
        {
          Tourney.nodes;
          duration = Scenario.sec duration;
          seed;
          families;
          algos;
          trace_dir;
        }
      in
      match Tourney.run ~log:(Format.printf "%s@.") spec with
      | exception Invalid_argument m -> `Error (false, m)
      | outcome ->
        print_string (Tourney.render outcome);
        Option.iter
          (fun dir -> Format.printf "@.wrote per-family traces under %s@." dir)
          trace_dir;
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc
              (Json_out.to_line (Tourney.json_of_outcome outcome));
            output_char oc '\n';
            close_out oc;
            Format.printf "wrote %s@." path)
          json;
        let checks =
          (if assert_sound then [ ("soundness", Tourney.check_csa_sound) ]
           else [])
          @
          if assert_leads then
            [ ("static ranking", Tourney.check_csa_leads_static) ]
          else []
        in
        let failures =
          List.filter_map
            (fun (what, check) ->
              match check outcome with
              | Ok () -> None
              | Error m -> Some (what ^ ": " ^ m))
            checks
        in
        if failures = [] then `Ok ()
        else `Error (false, String.concat "\n" failures))
  in
  let term =
    Term.(
      ret
        (const action $ nodes $ duration $ seed $ families_opt
       $ algos_opt ~default:"all" ~verb:"score" ~past:"scored"
       $ trace_dir_opt $ json_opt $ assert_sound $ assert_leads))
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Run the baselines tournament: dynamic-network scenario families \
          (static polling, lossy NTP hierarchy, gossip mesh, link churn, \
          partition-and-heal) crossed with the synchronization \
          algorithms, each family one seeded execution shared by every \
          algorithm, ranked per family by median estimate width.")
    term

(* ---- verify ---- *)

let verify_cmd =
  let seeds =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N"
           ~doc:"Number of randomized validation runs.")
  in
  let action seeds duration =
    let failures = ref 0 and checks = ref 0 in
    for seed = 1 to seeds do
      let rng = Rng.create (1000 + seed) in
      let n = 3 + Rng.int rng 4 in
      let links = Topology.random_connected rng ~n ~extra:(Rng.int rng 3) in
      let spec =
        System_spec.uniform ~n ~source:0
          ~drift:(Drift.of_ppm (1 + Rng.int rng 500))
          ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms (2 + Rng.int rng 20)))
          ~links
      in
      let traffic =
        match Rng.int rng 3 with
        | 0 -> Scenario.Ntp_poll { period = Scenario.sec 1 }
        | 1 -> Scenario.Gossip { mean_gap = Scenario.ms 300 }
        | _ -> Scenario.Ntp_poll { period = Scenario.ms 500 }
      in
      let r =
        Engine.run
          {
            (Scenario.default ~spec ~traffic) with
            Scenario.duration = Scenario.sec duration;
            seed;
            validate = true;
            clock_policy = (if seed mod 2 = 0 then `Adversarial else `Random);
            delay = (if seed mod 3 = 0 then `Alternate else `Uniform);
          }
      in
      let opt = List.assoc "optimal" r.Engine.per_algo in
      let vf =
        Option.value ~default:0 r.Engine.validation_failures
        + r.Engine.soundness_failures
      in
      checks := !checks + opt.Engine.samples;
      failures := !failures + vf;
      Format.printf "run %d: n=%d, %d checks, %d failures@." seed n
        opt.Engine.samples vf
    done;
    Format.printf "@.total: %d checks, %d failures@." !checks !failures;
    if !failures > 0 then `Error (false, "validation failed") else `Ok ()
  in
  let term = Term.(ret (const action $ seeds $ duration)) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run randomized scenarios checking, at every event, that the \
          efficient algorithm equals the reference optimal algorithm and \
          contains the true time.")
    term

let () =
  let doc =
    "optimal external clock synchronization under drifting clocks \
     (Ostrovsky & Patt-Shamir, PODC 1999)"
  in
  let info = Cmd.info "clocksync" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; sweep_cmd; tournament_cmd; verify_cmd; peer_cmd;
            hub_cmd; swarm_cmd; analyze_cmd ]))
