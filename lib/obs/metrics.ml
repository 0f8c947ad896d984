type algo_stats = {
  samples : int;
  contained : int;
  finite : int;
  mean_width : float;
  max_width : float;
}

type acc = {
  mutable n : int;
  mutable contained_n : int;
  mutable finite_n : int;
  mutable width_sum : float;
  mutable width_max : float;
}

type cohort_stats = {
  cohort_clients : int;
  cohort_established : int;
  cohort_frames : int;
  cohort_batched : int;
  cohort_coalesced : int;
}

type kind = Counter | Max_gauge

type row = { key : string; prom : string; kind : kind; help : string; slot : int }

(* The scalar counters, one row each, in trailer order.  [row] appends
   to the table and gives the counter its slot in [t.counts]; the
   trailer, the exposition and the analyzer walk [rows], and [on_event]
   bumps a slot through the handles in [Row]. *)
let table = ref []

let row ?(kind = Counter) key help =
  let prom =
    if kind = Counter && not (String.ends_with ~suffix:"_total" key) then
      "csync_" ^ key ^ "_total"
    else "csync_" ^ key
  in
  let r = { key; prom; kind; help; slot = List.length !table } in
  table := r :: !table;
  r

module Row = struct
  let sends = row "sends" "Protocol messages sent."
  let receives = row "receives" "Protocol messages received."
  let losses = row "losses" "Messages declared lost by the loss oracle."

  let payload_events_total =
    row "payload_events_total" "Events carried in sent payloads."

  let payload_events_max =
    row ~kind:Max_gauge "payload_events_max"
      "Largest single payload, in events."

  let payload_bytes_total =
    row "payload_bytes_total" "Codec-encoded payload bytes sent."

  let validation_checks =
    row "validation_checks" "Cross-oracle validation checks."

  let validation_failures =
    row "validation_failures" "Cross-oracle validation failures."

  let soundness_failures =
    row "soundness_failures"
      "Optimal estimates that missed the true source time."

  let liveness_peak =
    row ~kind:Max_gauge "liveness_peak"
      "Peak live-point count in any node's view."

  let oracle_inserts = row "oracle_inserts" "Distance-oracle insertions."
  let oracle_gcs = row "oracle_gcs" "Distance-oracle garbage collections."
  let net_tx = row "net_tx" "Frames put on the wire."
  let net_tx_bytes = row "net_tx_bytes" "Frame bytes put on the wire."
  let net_rx = row "net_rx" "Well-formed frames accepted."
  let net_rx_bytes = row "net_rx_bytes" "Frame bytes accepted."
  let net_drops = row "net_drops" "Incoming datagrams rejected."
  let peer_ups = row "peer_ups" "Peer sessions established."
  let peer_downs = row "peer_downs" "Peer sessions lost."

  let retransmits =
    row "retransmits" "Data messages declared lost after an ack timeout."

  let checkpoints = row "checkpoints" "Durable checkpoints written."
  let checkpoint_bytes = row "checkpoint_bytes" "Checkpoint bytes written."
  let crashes = row "crashes" "Node crashes."
  let recoveries = row "recoveries" "Node recoveries."
  let link_cuts = row "link_cuts" "Links cut by edge churn."
  let link_heals = row "link_heals" "Cut links healed by edge churn."

  let protocol_violations =
    row "protocol_violations"
      "Session protocol rules broken (live conformance monitor)."
end

let rows = List.rev !table

type t = {
  counts : int array; (* indexed by [row.slot] *)
  algos : (string, acc) Hashtbl.t;
  mutable algo_order : string list; (* first-appearance order, reversed *)
  spans : (string, Histogram.t) Hashtbl.t;
  mutable span_order : string list; (* first-appearance order, reversed *)
  (* hub_cohort counters are cumulative at the producer: keep only the
     latest emission per cohort *)
  hub : (int, cohort_stats) Hashtbl.t;
  mutable hub_order : int list; (* first-appearance order, reversed *)
}

let create () =
  {
    counts = Array.make (List.length rows) 0;
    algos = Hashtbl.create 8;
    algo_order = [];
    spans = Hashtbl.create 8;
    span_order = [];
    hub = Hashtbl.create 8;
    hub_order = [];
  }

let value t r = t.counts.(r.slot)
let add t r k = t.counts.(r.slot) <- t.counts.(r.slot) + k
let bump t r = add t r 1
let raise_to t r v = if v > t.counts.(r.slot) then t.counts.(r.slot) <- v

let acc t name =
  match Hashtbl.find_opt t.algos name with
  | Some a -> a
  | None ->
    let a =
      { n = 0; contained_n = 0; finite_n = 0; width_sum = 0.; width_max = 0. }
    in
    Hashtbl.replace t.algos name a;
    t.algo_order <- name :: t.algo_order;
    a

let on_event t (ev : Trace.event) =
  match ev with
  | Trace.Send { events; bytes; _ } ->
    bump t Row.sends;
    add t Row.payload_events_total events;
    raise_to t Row.payload_events_max events;
    add t Row.payload_bytes_total bytes
  | Trace.Receive _ -> bump t Row.receives
  | Trace.Lost _ -> bump t Row.losses
  | Trace.Estimate { algo; width; contained; _ } ->
    let a = acc t algo in
    a.n <- a.n + 1;
    if contained then a.contained_n <- a.contained_n + 1
    else if algo = "optimal" then bump t Row.soundness_failures;
    if Float.is_finite width then begin
      a.finite_n <- a.finite_n + 1;
      a.width_sum <- a.width_sum +. width;
      if width > a.width_max then a.width_max <- width
    end
  | Trace.Validation { ok; _ } ->
    bump t Row.validation_checks;
    if not ok then bump t Row.validation_failures
  | Trace.Liveness { live; _ } -> raise_to t Row.liveness_peak live
  | Trace.Oracle_insert _ -> bump t Row.oracle_inserts
  | Trace.Oracle_gc _ -> bump t Row.oracle_gcs
  | Trace.Net_tx { bytes; _ } ->
    bump t Row.net_tx;
    add t Row.net_tx_bytes bytes
  | Trace.Net_rx { bytes; _ } ->
    bump t Row.net_rx;
    add t Row.net_rx_bytes bytes
  | Trace.Net_drop _ -> bump t Row.net_drops
  | Trace.Peer_up _ -> bump t Row.peer_ups
  | Trace.Peer_down _ -> bump t Row.peer_downs
  | Trace.Retransmit _ -> bump t Row.retransmits
  | Trace.Checkpoint { bytes; _ } ->
    bump t Row.checkpoints;
    add t Row.checkpoint_bytes bytes
  | Trace.Crash _ -> bump t Row.crashes
  | Trace.Recover _ -> bump t Row.recoveries
  | Trace.Link_down _ -> bump t Row.link_cuts
  | Trace.Link_up _ -> bump t Row.link_heals
  | Trace.Protocol_violation _ -> bump t Row.protocol_violations
  | Trace.Hub_cohort { cohort; clients; established; frames; batched;
                       coalesced; _ } ->
    if not (Hashtbl.mem t.hub cohort) then
      t.hub_order <- cohort :: t.hub_order;
    Hashtbl.replace t.hub cohort
      {
        cohort_clients = clients;
        cohort_established = established;
        cohort_frames = frames;
        cohort_batched = batched;
        cohort_coalesced = coalesced;
      }
  | Trace.Span { name; dur } ->
    let h =
      match Hashtbl.find_opt t.spans name with
      | Some h -> h
      | None ->
        let h = Histogram.create () in
        Hashtbl.replace t.spans name h;
        t.span_order <- name :: t.span_order;
        h
    in
    Histogram.record h dur

module Sink = struct
  type nonrec t = t

  let emit = on_event
end

let sink t = Trace.Sink ((module Sink), t)

let sends t = value t Row.sends
let receives t = value t Row.receives
let losses t = value t Row.losses
let payload_events_total t = value t Row.payload_events_total
let payload_events_max t = value t Row.payload_events_max
let payload_bytes_total t = value t Row.payload_bytes_total
let validation_checks t = value t Row.validation_checks
let validation_failures t = value t Row.validation_failures
let soundness_failures t = value t Row.soundness_failures
let liveness_peak t = value t Row.liveness_peak
let oracle_inserts t = value t Row.oracle_inserts
let oracle_gcs t = value t Row.oracle_gcs
let net_drops t = value t Row.net_drops
let peer_ups t = value t Row.peer_ups
let retransmits t = value t Row.retransmits
let checkpoints t = value t Row.checkpoints
let checkpoint_bytes t = value t Row.checkpoint_bytes
let crashes t = value t Row.crashes
let recoveries t = value t Row.recoveries
let link_cuts t = value t Row.link_cuts
let link_heals t = value t Row.link_heals
let protocol_violations t = value t Row.protocol_violations
let algo_names t = List.rev t.algo_order
let span_names t = List.rev t.span_order
let span_hist t name = Hashtbl.find_opt t.spans name
let hub_cohort_ids t = List.rev t.hub_order
let hub_cohort t idx = Hashtbl.find_opt t.hub idx

let hub_totals t =
  Hashtbl.fold
    (fun _ c acc ->
      {
        cohort_clients = acc.cohort_clients + c.cohort_clients;
        cohort_established = acc.cohort_established + c.cohort_established;
        cohort_frames = acc.cohort_frames + c.cohort_frames;
        cohort_batched = acc.cohort_batched + c.cohort_batched;
        cohort_coalesced = acc.cohort_coalesced + c.cohort_coalesced;
      })
    t.hub
    {
      cohort_clients = 0;
      cohort_established = 0;
      cohort_frames = 0;
      cohort_batched = 0;
      cohort_coalesced = 0;
    }

let algo_stats t name =
  match Hashtbl.find_opt t.algos name with
  | None ->
    { samples = 0; contained = 0; finite = 0; mean_width = nan; max_width = 0. }
  | Some a ->
    {
      samples = a.n;
      contained = a.contained_n;
      finite = a.finite_n;
      mean_width =
        (if a.finite_n = 0 then nan
         else a.width_sum /. float_of_int a.finite_n);
      max_width = a.width_max;
    }

let summary_json t =
  let module J = Json_out in
  let scalars = List.map (fun r -> (r.key, J.Int (value t r))) rows in
  J.Obj
    ((("event", J.Str "summary") :: scalars)
    @ [
      ( "algos",
        J.Obj
          (List.map
             (fun name ->
               let a = algo_stats t name in
               ( name,
                 J.Obj
                   [
                     ("samples", J.Int a.samples);
                     ("contained", J.Int a.contained);
                     ("finite", J.Int a.finite);
                     ("mean_width", J.Float a.mean_width);
                     ("max_width", J.Float a.max_width);
                   ] ))
             (algo_names t)) );
      ( "hub_cohorts",
        J.Obj
          (List.map
             (fun idx ->
               let c = Hashtbl.find t.hub idx in
               ( string_of_int idx,
                 J.Obj
                   [
                     ("clients", J.Int c.cohort_clients);
                     ("established", J.Int c.cohort_established);
                     ("frames", J.Int c.cohort_frames);
                     ("batched", J.Int c.cohort_batched);
                     ("coalesced", J.Int c.cohort_coalesced);
                   ] ))
             (hub_cohort_ids t)) );
      ( "spans",
        J.Obj
          (List.map
             (fun name ->
               let h = Hashtbl.find t.spans name in
               ( name,
                 J.Obj
                   [
                     ("count", J.Int (Histogram.count h));
                     ("sum", J.Float (Histogram.sum h));
                     ("min", J.Float (Histogram.min_value h));
                     ("max", J.Float (Histogram.max_value h));
                     ("p50", J.Float (Histogram.quantile h 0.5));
                     ("p95", J.Float (Histogram.quantile h 0.95));
                     ("p99", J.Float (Histogram.quantile h 0.99));
                   ] ))
             (span_names t)) );
    ])
