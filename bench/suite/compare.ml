(* Parent-versus-change comparison of [run] outputs (one JSON file per
   invocation), after the small-sandbox rule: report each side's median
   and quartiles and the share of pairs the change wins, and call a
   metric improved only when the change wins at least 9 pairs in 10 and
   the medians differ by more than the parent's own quartile spread.
   Bounds come from BENCHMARK.json. *)

type bound = { name : string; higher : bool; bound : float }
type verdict = Improved | Unchanged | Unresolved | Regressed

let verdict_label = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Regressed -> "regressed"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse path =
  match Json_in.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ Json_in.error_to_string e)

let field k = function
  | Json_out.Obj l -> List.assoc_opt k l
  | _ -> None

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (field k j) (fun j -> path j rest)

let num = function
  | Some (Json_out.Float f) -> Some f
  | Some (Json_out.Int i) -> Some (float_of_int i)
  | _ -> None

let str = function Some (Json_out.Str s) -> Some s | _ -> None
let keys = function Some (Json_out.Obj l) -> List.map fst l | _ -> []

let bounds_of benchmark =
  match path benchmark [ "end_to_end" ] with
  | Some (Json_out.List l) ->
    List.filter_map
      (fun m ->
        match (str (field "name" m), str (field "better" m), num (field "bound" m)) with
        | Some name, Some better, Some bound ->
          Some { name; higher = better = "higher"; bound }
        | _ -> None)
      l
  | _ -> failwith "BENCHMARK.json: no end_to_end list"

(* [better b x y]: x reads better than y *)
let better b x y = if b.higher then x > y else x < y

let judge b ~parent ~change =
  let pq1, pm, pq3 = Stat.quartiles parent in
  let cq1, cm, cq3 = Stat.quartiles change in
  (* run i of each side forms pair i *)
  let rec pairs = function
    | p :: ps, c :: cs -> (p, c) :: pairs (ps, cs)
    | _ -> []
  in
  let pairs = pairs (parent, change) in
  let wins = List.length (List.filter (fun (p, c) -> better b c p) pairs) in
  let win_frac =
    if pairs = [] then 0. else float_of_int wins /. float_of_int (List.length pairs)
  in
  let worse_by = (if b.higher then pm -. cm else cm -. pm) /. Float.abs pm in
  let spread = Float.max ((pq3 -. pq1) /. Float.abs pm) ((cq3 -. cq1) /. Float.abs cm) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better b c p) parent) change
  in
  let verdict =
    if win_frac >= 0.9 && better b cm pm && Float.abs (cm -. pm) > pq3 -. pq1 then
      Improved
    else if worse_by > b.bound then Regressed
    else if spread > b.bound && not all_better then Unresolved
    else Unchanged
  in
  (win_frac, verdict)

let fail_frac run w =
  match
    ( num (path run [ "workloads"; w; "failed" ]),
      num (path run [ "workloads"; w; "attempted" ]) )
  with
  | Some f, Some a when a > 0. -> Some (f /. a)
  | _ -> None

let values runs w metric =
  List.filter_map
    (fun r -> num (path r [ "workloads"; w; "end_to_end"; metric; "value" ]))
    runs

let fmt_side l =
  let q1, m, q3 = Stat.quartiles l in
  Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3

(* prints the report; returns false on a regression or a higher failure
   share *)
let run ~benchmark ~parent ~change =
  let bounds = bounds_of (parse benchmark) in
  let parent = List.map parse parent and change = List.map parse change in
  let workloads =
    List.sort_uniq compare (List.concat_map (fun r -> keys (field "workloads" r)) parent)
  in
  let ok = ref true in
  Printf.printf "%-18s %-16s %-36s %-36s %5s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          let p = values parent w b.name and c = values change w b.name in
          if p <> [] && c <> [] then begin
            let win_frac, v = judge b ~parent:p ~change:c in
            if v = Regressed then ok := false;
            Printf.printf "%-18s %-16s %-36s %-36s %4.0f%%  %s\n" w b.name
              (fmt_side p) (fmt_side c) (100. *. win_frac) (verdict_label v)
          end)
        bounds;
      let ff runs = Stat.median (List.filter_map (fun r -> fail_frac r w) runs) in
      let fp = ff parent and fc = ff change in
      if fc > fp then begin
        ok := false;
        Printf.printf "%-18s fail_frac rose: parent %.6g, change %.6g\n" w fp fc
      end;
      (* deterministic counts must repeat exactly for a given seed *)
      let seed r = num (field "seed" r) in
      List.iter
        (fun k ->
          let vals runs =
            List.filter_map
              (fun r -> Option.map (fun v -> (seed r, v)) (num (path r [ "workloads"; w; "counts"; k ])))
              runs
          in
          let all = vals parent @ vals change in
          let differs =
            List.exists
              (fun (s, v) -> List.exists (fun (s', v') -> s = s' && v <> v') all)
              all
          in
          if differs then
            Printf.printf "%-18s count %s differs between runs of one seed\n" w k)
        (match parent with
        | r :: _ -> keys (path r [ "workloads"; w; "counts" ])
        | [] -> []))
    workloads;
  !ok
