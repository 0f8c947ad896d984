(* Offline trace analyzer: reads back the JSONL a run wrote (Json_in +
   Trace.event_of_json), re-aggregates it through a fresh Metrics, and
   reconstructs what happened — counters, convergence timeline,
   per-peer session health, span profiles.

   Because float round-trips are exact (Json_out.float_repr) and events
   are replayed in file order, the recomputed aggregates are
   bit-identical to the trailer summary the run wrote: summary_matches
   compares the two renderings byte for byte and any difference is a
   real trace bug, not float noise.

   A trace from a crashed process (kill -9 mid-write) may end in a
   truncated final line; that is expected — the cut line is reported as
   [truncated], not as a parse failure.  Garbage anywhere else is. *)

type t = {
  source : string;
  events : Trace.event list; (* file order *)
  metrics : Metrics.t;
  trailer : Json_out.t option; (* last "summary" record, if any *)
  bad : (int * string) list; (* 1-based line number, reason *)
  truncated : bool; (* final line cut mid-write *)
  total_lines : int; (* non-blank lines, truncated tail included *)
}

let is_blank s =
  let n = String.length s in
  let rec go i =
    i >= n || ((s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\r') && go (i + 1))
  in
  go 0

type parsed = Event of Trace.event | Trailer of Json_out.t | Bad of string

let parse_line line =
  match Json_in.parse line with
  | Error e -> Bad (Json_in.error_to_string e)
  | Ok j -> (
    let label =
      match j with
      | Json_out.Obj fields -> (
        match List.assoc_opt "event" fields with
        | Some (Json_out.Str s) -> Some s
        | _ -> None)
      | _ -> None
    in
    match label with
    | Some "summary" -> Trailer j
    | _ -> (
      match Trace.event_of_json j with
      | Ok ev -> Event ev
      | Error msg -> Bad msg))

let of_string ?(source = "<string>") raw =
  let metrics = Metrics.create () in
  let events = ref [] in
  let trailer = ref None in
  let bad = ref [] in
  let truncated = ref false in
  let total = ref 0 in
  let line_no = ref 0 in
  let feed ~last line =
    if not (is_blank line) then begin
      incr line_no;
      incr total;
      match parse_line line with
      | Event ev ->
        events := ev :: !events;
        Metrics.on_event metrics ev
      | Trailer j -> trailer := Some j
      | Bad reason ->
        (* the final newline-less fragment of a crashed run is a cut,
           not corruption *)
        if last then truncated := true
        else bad := (!line_no, reason) :: !bad
    end
  in
  let n = String.length raw in
  let start = ref 0 in
  while !start < n do
    match String.index_from_opt raw !start '\n' with
    | Some i ->
      feed ~last:false (String.sub raw !start (i - !start));
      start := i + 1
    | None ->
      feed ~last:true (String.sub raw !start (n - !start));
      start := n
  done;
  {
    source;
    events = List.rev !events;
    metrics;
    trailer = !trailer;
    bad = List.rev !bad;
    truncated = !truncated;
    total_lines = !total;
  }

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | raw -> Ok (of_string ~source:path raw)
  | exception Sys_error msg -> Error msg

let estimate_samples t =
  List.fold_left
    (fun acc a -> acc + (Metrics.algo_stats t.metrics a).Metrics.samples)
    0
    (Metrics.algo_names t.metrics)

(* Byte-compare the re-rendered trailer against the recomputed summary;
   on mismatch, name the first differing field. *)
let summary_matches t =
  match t.trailer with
  | None -> Ok ()
  | Some tr ->
    let ours = Metrics.summary_json t.metrics in
    if Json_out.to_line ours = Json_out.to_line tr then Ok ()
    else
      let describe () =
        match (ours, tr) with
        | Json_out.Obj a, Json_out.Obj b ->
          let keys l = List.map fst l in
          let missing =
            List.filter (fun k -> not (List.mem k (keys b))) (keys a)
          in
          let extra =
            List.filter (fun k -> not (List.mem k (keys a))) (keys b)
          in
          if missing <> [] then
            Printf.sprintf "trailer lacks field %S" (List.hd missing)
          else if extra <> [] then
            Printf.sprintf "trailer has unexpected field %S" (List.hd extra)
          else (
            match
              List.find_opt
                (fun (k, v) ->
                  match List.assoc_opt k b with
                  | Some w -> Json_out.to_line v <> Json_out.to_line w
                  | None -> true)
                a
            with
            | Some (k, v) ->
              Printf.sprintf "field %S: recomputed %s, trailer has %s" k
                (Json_out.to_line v)
                (Json_out.to_line
                   (Option.value ~default:Json_out.Null (List.assoc_opt k b)))
            | None -> "field order differs")
        | _ -> "trailer is not an object"
      in
      Error (describe ())

(* ---------- report rendering ---------- *)

let buckets_of_timeline = 8

let estimate_points t =
  List.filter_map
    (function
      | Trace.Estimate { t = ts; algo; width; contained; _ }
        when Float.is_finite ts ->
        Some (ts, algo, width, contained)
      | _ -> None)
    t.events

let render_timeline buf t =
  let pts = estimate_points t in
  let algos = Metrics.algo_names t.metrics in
  if pts <> [] && algos <> [] then begin
    let tmin = List.fold_left (fun a (ts, _, _, _) -> Float.min a ts) Float.infinity pts in
    let tmax = List.fold_left (fun a (ts, _, _, _) -> Float.max a ts) Float.neg_infinity pts in
    let span = Float.max (tmax -. tmin) 1e-9 in
    let nb = buckets_of_timeline in
    let bucket ts =
      let i = int_of_float ((ts -. tmin) /. span *. float_of_int nb) in
      if i < 0 then 0 else if i >= nb then nb - 1 else i
    in
    (* per (bucket, algo): finite-width sum/count *)
    let sums = Hashtbl.create 32 in
    List.iter
      (fun (ts, algo, width, _) ->
        if Float.is_finite width then begin
          let key = (bucket ts, algo) in
          let s, c =
            Option.value ~default:(0., 0) (Hashtbl.find_opt sums key)
          in
          Hashtbl.replace sums key (s +. width, c + 1)
        end)
      pts;
    let rows =
      List.init nb (fun i ->
          let upper = tmin +. (span *. float_of_int (i + 1) /. float_of_int nb) in
          Table.fq upper
          :: List.map
               (fun algo ->
                 match Hashtbl.find_opt sums (i, algo) with
                 | Some (s, c) when c > 0 ->
                   Printf.sprintf "%s (%d)" (Table.fq (s /. float_of_int c)) c
                 | _ -> "-")
               algos)
    in
    Buffer.add_string buf "convergence timeline (mean finite width per window):\n";
    Buffer.add_string buf (Table.render ~header:("t <=" :: algos) rows);
    Buffer.add_char buf '\n'
  end

(* The width percentiles leave out processor 0.  It is the source in
   every runtime (the simulator's specs and the hub alike), so its widths
   are the reading quantum alone, and they would set every algorithm's
   median.  The sample columns stay the trailer's totals. *)
let render_accuracy buf t =
  let algos = Metrics.algo_names t.metrics in
  if algos <> [] then begin
    let rows =
      List.map
        (fun algo ->
          let s = Metrics.algo_stats t.metrics algo in
          let widths = Summary.create () in
          List.iter
            (function
              | Trace.Estimate { t = ts; node; algo = a; width; _ }
                when a = algo && node <> 0 && Float.is_finite ts ->
                Summary.add widths width
              | _ -> ())
            t.events;
          let pct p =
            if Summary.n widths = 0 then "-" else Table.fq (Summary.percentile widths p)
          in
          [
            algo;
            string_of_int s.Metrics.samples;
            string_of_int s.Metrics.finite;
            (if s.Metrics.samples = 0 then "-"
             else
               Printf.sprintf "%.1f%%"
                 (100. *. float_of_int s.Metrics.contained
                 /. float_of_int s.Metrics.samples));
            pct 0.5;
            pct 0.9;
            pct 0.99;
            Table.fq s.Metrics.max_width;
          ])
        algos
    in
    Buffer.add_string buf
      "estimate accuracy (widths in seconds; p50/p90/p99 over nodes other \
       than the source, node 0):\n";
    Buffer.add_string buf
      (Table.render
         ~header:
           [ "algo"; "samples"; "finite"; "contained"; "p50"; "p90"; "p99"; "max" ]
         rows);
    Buffer.add_char buf '\n'
  end

(* Every nonzero scalar counter, in trailer order. *)
let render_counters buf t =
  let rows =
    List.filter_map
      (fun (r : Metrics.row) ->
        match Metrics.value t.metrics r with
        | 0 -> None
        | v -> Some [ r.key; string_of_int v ])
      Metrics.rows
  in
  if rows <> [] then begin
    Buffer.add_string buf "counters:\n";
    Buffer.add_string buf (Table.render ~header:[ "counter"; "value" ] rows);
    Buffer.add_char buf '\n'
  end

(* Per-peer session events and drop reasons, from the raw events. *)
let render_sessions buf t =
  let peers = Hashtbl.create 8 in
  let reasons = Hashtbl.create 8 in
  let bump peer i =
    let arr =
      match Hashtbl.find_opt peers peer with
      | Some a -> a
      | None ->
        let a = [| 0; 0; 0 |] in
        Hashtbl.replace peers peer a;
        a
    in
    arr.(i) <- arr.(i) + 1
  in
  List.iter
    (function
      | Trace.Peer_up { peer; _ } -> bump peer 0
      | Trace.Peer_down { peer; _ } -> bump peer 1
      | Trace.Retransmit { peer; _ } -> bump peer 2
      | Trace.Net_drop { reason; _ } ->
        Hashtbl.replace reasons reason
          (1 + Option.value ~default:0 (Hashtbl.find_opt reasons reason))
      | _ -> ())
    t.events;
  if Hashtbl.length peers + Hashtbl.length reasons > 0 then begin
    Buffer.add_string buf "session health:\n";
    let peer_ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) peers []) in
    if peer_ids <> [] then begin
      let rows =
        List.map
          (fun p ->
            let a = Hashtbl.find peers p in
            [
              string_of_int p; string_of_int a.(0); string_of_int a.(1);
              string_of_int a.(2);
            ])
          peer_ids
      in
      Buffer.add_string buf
        (Table.render ~header:[ "peer"; "ups"; "downs"; "retransmits" ] rows)
    end;
    Hashtbl.iter
      (fun reason n ->
        Buffer.add_string buf (Printf.sprintf "  drop[%s]: %d\n" reason n))
      reasons;
    Buffer.add_char buf '\n'
  end

let render_hub buf t =
  match Metrics.hub_cohort_ids t.metrics with
  | [] -> ()
  | ids ->
    let row idx (c : Metrics.cohort_stats) =
      [
        idx;
        string_of_int c.Metrics.cohort_clients;
        string_of_int c.Metrics.cohort_established;
        string_of_int c.Metrics.cohort_frames;
        string_of_int c.Metrics.cohort_batched;
        string_of_int c.Metrics.cohort_coalesced;
      ]
    in
    let rows =
      List.filter_map
        (fun idx ->
          Option.map
            (row (string_of_int idx))
            (Metrics.hub_cohort t.metrics idx))
        ids
      @ [ row "total" (Metrics.hub_totals t.metrics) ]
    in
    Buffer.add_string buf "hub cohorts (latest gauges):\n";
    Buffer.add_string buf
      (Table.render
         ~header:[ "cohort"; "clients"; "up"; "frames"; "batched"; "coalesced" ]
         rows);
    Buffer.add_char buf '\n'

let render_spans buf t =
  match Metrics.span_names t.metrics with
  | [] -> ()
  | ops ->
    let rows =
      List.filter_map
        (fun op ->
          match Metrics.span_hist t.metrics op with
          | None -> None
          | Some h ->
            Some
              [
                op;
                string_of_int (Histogram.count h);
                Table.fq (Histogram.quantile h 0.5);
                Table.fq (Histogram.quantile h 0.95);
                Table.fq (Histogram.quantile h 0.99);
                Table.fq (Histogram.max_value h);
                Table.fq (Histogram.sum h);
              ])
        ops
    in
    Buffer.add_string buf "hot-path profile (seconds):\n";
    Buffer.add_string buf
      (Table.render
         ~header:[ "op"; "count"; "p50"; "p95"; "p99"; "max"; "total" ] rows);
    Buffer.add_char buf '\n'

let render_event_counts buf t =
  let counts = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun ev ->
      let l = Trace.label ev in
      match Hashtbl.find_opt counts l with
      | Some n -> Hashtbl.replace counts l (n + 1)
      | None ->
        Hashtbl.replace counts l 1;
        order := l :: !order)
    t.events;
  let rows =
    List.rev_map
      (fun l -> [ l; string_of_int (Hashtbl.find counts l) ])
      !order
  in
  if rows <> [] then begin
    Buffer.add_string buf "events:\n";
    Buffer.add_string buf (Table.render ~header:[ "event"; "count" ] rows);
    Buffer.add_char buf '\n'
  end

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "trace %s: %d lines, %d events%s\n" t.source t.total_lines
       (List.length t.events)
       (if t.truncated then " (final line truncated mid-write)" else ""));
  List.iter
    (fun (no, reason) ->
      Buffer.add_string buf
        (Printf.sprintf "  UNPARSEABLE line %d: %s\n" no reason))
    t.bad;
  (match t.trailer with
  | None ->
    Buffer.add_string buf
      "  no summary trailer (crashed or still-running producer)\n"
  | Some _ -> (
    match summary_matches t with
    | Ok () ->
      Buffer.add_string buf
        "  summary trailer matches recomputed aggregates exactly\n"
    | Error msg ->
      Buffer.add_string buf
        (Printf.sprintf "  SUMMARY MISMATCH: %s\n" msg)));
  Buffer.add_char buf '\n';
  render_event_counts buf t;
  render_counters buf t;
  render_timeline buf t;
  render_accuracy buf t;
  render_sessions buf t;
  render_hub buf t;
  render_spans buf t;
  Buffer.contents buf
