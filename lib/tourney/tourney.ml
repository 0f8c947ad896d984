(* Baselines tournament: scenario families x algorithms, every cell an
   identical-execution comparison (baselines piggyback on the very same
   messages the CSA sees), ranked per family by median estimate width. *)

type family = {
  fam_name : string;
  fam_doc : string;
  static_like : bool;
  build : nodes:int -> duration:Q.t -> seed:int -> Scenario.t;
}

let algo_names = "optimal" :: List.map Baseline.name Baseline.all

(* one spec shape shared by the families: uniform drift and transit, the
   knobs that differ are topology, traffic and dynamics *)
let mk_spec ~n ~links =
  System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
    ~links

let static_family =
  {
    fam_name = "static";
    fam_doc = "star topology, steady NTP-pattern polling, no loss";
    static_like = true;
    build =
      (fun ~nodes ~duration ~seed ->
        let spec = mk_spec ~n:nodes ~links:(Topology.star nodes) in
        {
          (Scenario.default ~spec
             ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
          with
          Scenario.duration;
          seed;
        });
  }

let ntp_poll_family =
  {
    fam_name = "ntp-poll";
    fam_doc = "stratum hierarchy, polling through levels, 5% loss";
    static_like = false;
    build =
      (fun ~nodes ~duration ~seed ->
        (* a two-level stratum tree sized from the requested node count *)
        let width = max 1 ((nodes - 1) / 2) in
        let n, links = Topology.ntp_hierarchy ~levels:2 ~width ~fanout:2 in
        let spec = mk_spec ~n ~links in
        {
          (Scenario.default ~spec
             ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
          with
          Scenario.duration;
          seed;
          loss_prob = 0.05;
        });
  }

let gossip_family =
  {
    fam_name = "gossip";
    fam_doc = "random connected mesh, one-way gossip traffic";
    static_like = false;
    build =
      (fun ~nodes ~duration ~seed ->
        let rng = Rng.create (7 * seed + 1) in
        let links = Topology.random_connected rng ~n:nodes ~extra:2 in
        let spec = mk_spec ~n:nodes ~links in
        {
          (Scenario.default ~spec
             ~traffic:(Scenario.Gossip { mean_gap = Scenario.ms 200 }))
          with
          Scenario.duration;
          seed;
        });
  }

let churn_family =
  {
    fam_name = "churn";
    fam_doc = "ring under continuous link cut/heal cycles";
    static_like = false;
    build =
      (fun ~nodes ~duration ~seed ->
        let spec = mk_spec ~n:nodes ~links:(Topology.ring nodes) in
        {
          (Scenario.default ~spec
             ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
          with
          Scenario.duration;
          seed;
          churn =
            Some { Scenario.cuts = nodes; min_down = None; max_down = None };
        });
  }

let partition_heal_family =
  {
    fam_name = "partition-heal";
    fam_doc = "star split in half mid-run, then healed";
    static_like = false;
    build =
      (fun ~nodes ~duration ~seed ->
        let spec = mk_spec ~n:nodes ~links:(Topology.star nodes) in
        let island =
          (* the far half of the non-source nodes goes dark *)
          List.init (nodes - 1) (fun i -> i + 1)
          |> List.filter (fun p -> p > nodes / 2)
        in
        let island = if island = [] then [ nodes - 1 ] else island in
        {
          (Scenario.default ~spec
             ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
          with
          Scenario.duration;
          seed;
          faults =
            [
              Fault.Injection.Partition
                {
                  at = Q.div_int duration 3;
                  heal = Q.div_int (Q.mul_int duration 2) 3;
                  island;
                };
            ];
        });
  }

let all_families =
  [
    static_family; ntp_poll_family; gossip_family; churn_family;
    partition_heal_family;
  ]

let family_of_name name =
  match
    List.find_opt (fun f -> f.fam_name = name) all_families
  with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown family %S (known: %s)" name
         (String.concat "|" (List.map (fun f -> f.fam_name) all_families)))

(* ---- results ---------------------------------------------------------- *)

type cell = {
  algo : string;
  rank : int;
  samples : int;
  contained : int;
  sound : bool;
  p50 : float;
  p90 : float;
  mean_width : float;
  convergence : float;
}

type family_result = {
  family : string;
  static_scored : bool;
  messages : int;
  lost : int;
  payload_bytes : int;
  soundness_failures : int;
  cells : cell list;
}

type outcome = { duels : family_result list }

(* nearest-rank percentile over ALL samples, unbounded estimates
   included: an algorithm that mostly never converges must not win on
   the strength of its few finite moments.  Summary.percentile ignores
   non-finite samples, which is the wrong scoring rule here. *)
let percentile_with_inf widths q =
  match Array.length widths with
  | 0 -> infinity
  | len ->
    let a = Array.copy widths in
    Array.sort compare a;
    a.(min (len - 1) (int_of_float (q *. float_of_int len)))

let cells_of_result ~algos (r : Engine.result) =
  let per_algo_widths name =
    List.filter_map
      (fun (_rt, ws) -> List.assoc_opt name ws)
      r.Engine.series
    |> Array.of_list
  in
  let convergence name =
    List.find_map
      (fun (rt, ws) ->
        match List.assoc_opt name ws with
        | Some w when Float.is_finite w -> Some rt
        | _ -> None)
      r.Engine.series
    |> Option.value ~default:infinity
  in
  let unranked =
    List.filter_map
      (fun (name, (a : Engine.algo_summary)) ->
        if not (List.mem name algos) then None
        else
          let widths = per_algo_widths name in
          Some
            {
              algo = name;
              rank = 0;
              samples = a.Engine.samples;
              contained = a.Engine.contained;
              sound = a.Engine.samples > 0 && a.Engine.contained = a.Engine.samples;
              p50 = percentile_with_inf widths 0.5;
              p90 = percentile_with_inf widths 0.9;
              mean_width = a.Engine.mean_width;
              convergence = convergence name;
            })
      r.Engine.per_algo
  in
  (* rank by median width, ties by p90 then mean; unbounded medians last *)
  let cmp a b =
    match compare a.p50 b.p50 with
    | 0 -> (
      match compare a.p90 b.p90 with
      | 0 -> compare a.mean_width b.mean_width
      | c -> c)
    | c -> c
  in
  List.sort cmp unranked |> List.mapi (fun i c -> { c with rank = i + 1 })

(* ---- running ---------------------------------------------------------- *)

type spec = {
  nodes : int;
  duration : Q.t;
  seed : int;
  families : family list;
  algos : string list;
  trace_dir : string option;
}

let default_spec =
  {
    nodes = 6;
    duration = Scenario.sec 20;
    seed = 42;
    families = all_families;
    algos = algo_names;
    trace_dir = None;
  }

let baselines_of algos =
  match Baseline.of_names algos with
  | Error m -> invalid_arg ("Tourney.run: " ^ m)
  | Ok _ when not (List.mem "optimal" algos) ->
    invalid_arg
      "Tourney.run: the tournament always scores \"optimal\"; do not drop it"
  | Ok baselines -> baselines

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* per-cell observability: mirror the CLI's --trace harness — a JSONL
   sink teed with a Metrics aggregate whose summary closes the file, so
   `clocksync analyze` accepts every tournament trace *)
let with_family_sink ~trace_dir ~family f =
  match trace_dir with
  | None -> f Trace.null
  | Some dir ->
    mkdir_p dir;
    let path = Filename.concat dir (family ^ ".jsonl") in
    let m = Metrics.create () in
    let oc = open_out path in
    let sink = Trace.tee (Trace.jsonl oc) (Metrics.sink m) in
    Fun.protect
      ~finally:(fun () ->
        output_string oc (Json_out.to_line (Metrics.summary_json m));
        output_char oc '\n';
        close_out oc)
      (fun () -> f sink)

let run ?(log = fun _ -> ()) spec =
  let baselines = baselines_of spec.algos in
  if spec.nodes < 3 then invalid_arg "Tourney.run: need at least 3 nodes";
  if spec.families = [] then invalid_arg "Tourney.run: no families";
  let duels =
    List.mapi
      (fun i fam ->
        log
          (Printf.sprintf "family %s (%d/%d): %s" fam.fam_name (i + 1)
             (List.length spec.families) fam.fam_doc);
        let scenario =
          {
            (fam.build ~nodes:spec.nodes ~duration:spec.duration
               ~seed:(spec.seed + i))
            with
            Scenario.baselines;
          }
        in
        let r =
          with_family_sink ~trace_dir:spec.trace_dir ~family:fam.fam_name
            (fun sink -> Engine.run { scenario with Scenario.trace = sink })
        in
        {
          family = fam.fam_name;
          static_scored = fam.static_like;
          messages = r.Engine.messages_sent;
          lost = r.Engine.messages_lost;
          payload_bytes = r.Engine.payload_bytes_total;
          soundness_failures = r.Engine.soundness_failures;
          cells = cells_of_result ~algos:spec.algos r;
        })
      spec.families
  in
  { duels }

(* ---- checks (the smoke gates) ----------------------------------------- *)

let optimal_cell fr = List.find_opt (fun c -> c.algo = "optimal") fr.cells

let check_csa_sound o =
  let bad =
    List.filter_map
      (fun fr ->
        if fr.soundness_failures > 0 then
          Some
            (Printf.sprintf "%s: %d soundness failures" fr.family
               fr.soundness_failures)
        else
          match optimal_cell fr with
          | None -> Some (fr.family ^ ": no optimal cell")
          | Some c when c.samples = 0 ->
            Some (fr.family ^ ": optimal never sampled")
          | Some c when not c.sound ->
            Some
              (Printf.sprintf "%s: optimal contained %d/%d" fr.family
                 c.contained c.samples)
          | Some _ -> None)
      o.duels
  in
  if bad = [] then Ok () else Error (String.concat "; " bad)

let check_csa_leads_static o =
  let bad =
    List.concat_map
      (fun fr ->
        if not fr.static_scored then []
        else
          match optimal_cell fr with
          | None -> [ fr.family ^ ": no optimal cell" ]
          | Some opt ->
            List.filter_map
              (fun c ->
                if c.algo <> "optimal" && c.p50 < opt.p50 then
                  Some
                    (Printf.sprintf
                       "%s: %s beats optimal on median width (%g < %g)"
                       fr.family c.algo c.p50 opt.p50)
                else None)
              fr.cells)
      o.duels
  in
  if bad = [] then Ok () else Error (String.concat "; " bad)

(* ---- rendering -------------------------------------------------------- *)

let fsec x = if Float.is_finite x then Printf.sprintf "%.2f" x else "never"

let render o =
  let header =
    [ "family"; "algorithm"; "rank"; "samples"; "contained"; "p50 width";
      "p90 width"; "mean width"; "converged@s" ]
  in
  let rows =
    List.concat_map
      (fun fr ->
        List.map
          (fun c ->
            [
              fr.family;
              c.algo;
              string_of_int c.rank;
              string_of_int c.samples;
              Printf.sprintf "%d/%d" c.contained c.samples;
              Table.fq c.p50;
              Table.fq c.p90;
              Table.fq c.mean_width;
              fsec c.convergence;
            ])
          fr.cells)
      o.duels
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render ~header rows);
  Buffer.add_char buf '\n';
  List.iter
    (fun fr ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-15s %6d messages (%d lost), %d payload bytes, winner: %s\n"
           fr.family fr.messages fr.lost fr.payload_bytes
           (match fr.cells with c :: _ -> c.algo | [] -> "-")))
    o.duels;
  Buffer.contents buf

let json_of_outcome o =
  let module J = Json_out in
  let jfloat x = if Float.is_finite x then J.Float x else J.Str "inf" in
  J.Obj
    [
      ( "families",
        J.List
          (List.map
             (fun fr ->
               J.Obj
                 [
                   ("family", J.Str fr.family);
                   ("static_scored", J.Bool fr.static_scored);
                   ("messages", J.Int fr.messages);
                   ("lost", J.Int fr.lost);
                   ("payload_bytes", J.Int fr.payload_bytes);
                   ("soundness_failures", J.Int fr.soundness_failures);
                   ( "cells",
                     J.List
                       (List.map
                          (fun c ->
                            J.Obj
                              [
                                ("algo", J.Str c.algo);
                                ("rank", J.Int c.rank);
                                ("samples", J.Int c.samples);
                                ("contained", J.Int c.contained);
                                ("sound", J.Bool c.sound);
                                ("p50_width", jfloat c.p50);
                                ("p90_width", jfloat c.p90);
                                ("mean_width", jfloat c.mean_width);
                                ("convergence_s", jfloat c.convergence);
                              ])
                          fr.cells) );
                 ])
             o.duels) );
    ]
