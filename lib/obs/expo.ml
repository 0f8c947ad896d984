(* Prometheus text exposition (format version 0.0.4) over a Metrics
   aggregate.  Pure rendering: the caller decides how to serve the
   string (the net runtime's Stat_server, or `clocksync run --prof`
   dumping it to stdout). *)

let escape_label v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Prometheus floats: plain decimal, round-trip precision *)
let num f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Json_out.float_repr f

let render (m : Metrics.t) =
  let buf = Buffer.create 4096 in
  let header name kind help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (r : Metrics.row) ->
      let kind =
        match r.kind with Metrics.Counter -> "counter" | Max_gauge -> "gauge"
      in
      header r.prom kind r.help;
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" r.prom (Metrics.value m r)))
    Metrics.rows;
  (match Metrics.hub_cohort_ids m with
  | [] -> ()
  | ids ->
    let per name kind help field =
      header name kind help;
      List.iter
        (fun idx ->
          match Metrics.hub_cohort m idx with
          | None -> ()
          | Some c ->
            Buffer.add_string buf
              (Printf.sprintf "%s{cohort=\"%d\"} %d\n" name idx (field c)))
        ids
    in
    per "csync_hub_clients" "gauge" "Clients assigned to each hub cohort."
      (fun c -> c.Metrics.cohort_clients);
    per "csync_hub_established" "gauge"
      "Clients currently established per hub cohort."
      (fun c -> c.Metrics.cohort_established);
    per "csync_hub_frames_total" "counter"
      "Valid client frames handled per hub cohort."
      (fun c -> c.Metrics.cohort_frames);
    per "csync_hub_batched_total" "counter"
      "Frames handled on a burst drain per hub cohort."
      (fun c -> c.Metrics.cohort_batched);
    per "csync_hub_coalesced_total" "counter"
      "Frames that shared a per-tick flush per hub cohort."
      (fun c -> c.Metrics.cohort_coalesced));
  (match Metrics.algo_names m with
  | [] -> ()
  | algos ->
    header "csync_estimate_samples_total" "counter"
      "Estimate samples per algorithm.";
    List.iter
      (fun a ->
        let s = Metrics.algo_stats m a in
        Buffer.add_string buf
          (Printf.sprintf "csync_estimate_samples_total{algo=\"%s\"} %d\n"
             (escape_label a) s.Metrics.samples))
      algos;
    header "csync_estimate_contained_total" "counter"
      "Estimate samples whose interval contained the true time.";
    List.iter
      (fun a ->
        let s = Metrics.algo_stats m a in
        Buffer.add_string buf
          (Printf.sprintf "csync_estimate_contained_total{algo=\"%s\"} %d\n"
             (escape_label a) s.Metrics.contained))
      algos;
    header "csync_estimate_width_mean_seconds" "gauge"
      "Mean finite estimate width per algorithm.";
    List.iter
      (fun a ->
        let s = Metrics.algo_stats m a in
        Buffer.add_string buf
          (Printf.sprintf "csync_estimate_width_mean_seconds{algo=\"%s\"} %s\n"
             (escape_label a) (num s.Metrics.mean_width)))
      algos;
    header "csync_estimate_width_max_seconds" "gauge"
      "Max finite estimate width per algorithm.";
    List.iter
      (fun a ->
        let s = Metrics.algo_stats m a in
        Buffer.add_string buf
          (Printf.sprintf "csync_estimate_width_max_seconds{algo=\"%s\"} %s\n"
             (escape_label a) (num s.Metrics.max_width)))
      algos);
  (match Metrics.span_names m with
  | [] -> ()
  | ops ->
    header "csync_op_duration_seconds" "histogram"
      "Hot-path operation latency (profiler spans).";
    List.iter
      (fun op ->
        match Metrics.span_hist m op with
        | None -> ()
        | Some h ->
          let lop = escape_label op in
          List.iter
            (fun (le, cum) ->
              (* the overflow bucket's bound is +Inf; it is rendered
                 once below from the total count *)
              if Float.is_finite le then
                Buffer.add_string buf
                  (Printf.sprintf
                     "csync_op_duration_seconds_bucket{op=\"%s\",le=\"%s\"} %d\n"
                     lop (num le) cum))
            (Histogram.cumulative h);
          Buffer.add_string buf
            (Printf.sprintf
               "csync_op_duration_seconds_bucket{op=\"%s\",le=\"+Inf\"} %d\n"
               lop (Histogram.count h));
          Buffer.add_string buf
            (Printf.sprintf "csync_op_duration_seconds_sum{op=\"%s\"} %s\n" lop
               (num (Histogram.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "csync_op_duration_seconds_count{op=\"%s\"} %d\n"
               lop (Histogram.count h)))
      ops);
  Buffer.contents buf
