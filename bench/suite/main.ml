(* Benchmark suite command line.

     main.exe measure --workload W [--seed N] [--seconds S] [--trace 0|1]
                      [--quick] [--spans FILE] [--record FILE]
       one workload in this process; prints one "workload metric value
       unit" line per metric, then a one-line JSON result (the line
       BENCHMARK.json's command contract reads).  Exits 1 when a
       correctness check fails.

     main.exe run [--workload W]... [--seed N] [--seconds S] [--quick]
                  [--trace SPANS.jsonl] --json OUT.json
       every named workload (default: all four), each in its own child
       process, one after another; with --trace, a second, traced child
       per workload adds the per-layer ledger and writes its spans.  One
       invocation is one sample: repeat the command for repeats.

     main.exe compare PARENT.json... -- CHANGE.json... [--benchmark FILE]
       medians, quartiles, win share and a verdict per workload and
       end-to-end metric; exits 1 on a regression or a higher failure
       share.

     main.exe list
       the workloads and why each was chosen. *)

open Bench_suite

let default_seconds = 20.
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("main: " ^ s); exit 2) fmt

let workload_exn name =
  match Suite.find name with
  | Some w -> w
  | None ->
    die "unknown workload %s (known: %s)" name
      (String.concat " " (List.map (fun w -> w.Suite.name) Suite.workloads))

let int_arg flag s =
  match int_of_string_opt s with Some n -> n | None -> die "%s wants an integer" flag

let float_arg flag s =
  match float_of_string_opt s with Some x -> x | None -> die "%s wants a number" flag

(* ---- measure ---- *)

let measure args =
  let workload = ref None and seed = ref 7 and seconds = ref default_seconds in
  let traced = ref false and quick = ref false in
  let spans = ref None and record = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_arg "--seconds" s; parse rest
    | "--trace" :: t :: rest ->
      (match t with
      | "0" -> traced := false
      | "1" -> traced := true
      | _ -> die "--trace wants 0 or 1");
      parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--spans" :: f :: rest -> spans := Some f; parse rest
    | "--record" :: f :: rest -> record := Some f; parse rest
    | a :: _ -> die "measure: unexpected argument %s" a
  in
  parse args;
  let w =
    match !workload with Some w -> workload_exn w | None -> die "measure: --workload is required"
  in
  let r =
    Suite.measure ~quick:!quick ~seed:!seed ~seconds:!seconds ~traced:!traced w
  in
  Option.iter
    (fun f -> Out_channel.with_open_bin f (fun oc -> Ledger.write_jsonl oc ~workload:w.Suite.name))
    !spans;
  Option.iter (fun f -> Json_out.write f (Suite.record_json r)) !record;
  List.iter print_endline (Suite.metric_lines r);
  List.iter
    (fun (n, ok) -> if not ok then Printf.printf "%s FAILED CHECK: %s\n" r.Suite.workload n)
    r.Suite.checks;
  print_endline (Suite.result_line r);
  if not (Suite.correct r) then exit 1

(* ---- run ---- *)

let read_lines path =
  try In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n'
  with Sys_error _ -> []

let first_line_with prefix lines =
  List.find_map
    (fun l ->
      let n = String.length prefix in
      if String.length l > n && String.sub l 0 n = prefix then
        Some (String.trim (String.sub l n (String.length l - n)))
      else None)
    lines

let fingerprint () =
  let cpu = read_lines "/proc/cpuinfo" in
  let nproc =
    List.length
      (List.filter (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor") cpu)
  in
  let model =
    match first_line_with "model name" cpu with
    | Some s -> String.trim (String.sub s 1 (String.length s - 1))
    | None -> "unknown"
  in
  let load =
    match read_lines "/proc/loadavg" with
    | l :: _ -> (
      match String.split_on_char ' ' l with
      | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
      | _ -> [])
    | [] -> []
  in
  (* a fixed CPU loop: a slow or busy machine shows as a larger value *)
  let calib () =
    let t0 = Ledger.now () in
    let x = ref 0. and h = Hashtbl.create 1024 in
    for i = 1 to 2_000_000 do
      x := !x +. sqrt (float_of_int i);
      if i land 15 = 0 then Hashtbl.replace h (i land 1023) !x
    done;
    ignore (Sys.opaque_identity !x);
    (Ledger.now () -. t0) *. 1e3
  in
  Json_out.Obj
    [
      ("nproc", Json_out.Int nproc);
      ("cpu_model", Json_out.Str model);
      ("ocaml", Json_out.Str Sys.ocaml_version);
      ("loadavg", Json_out.List (List.map (fun x -> Json_out.Float x) load));
      ("calib_ms", Json_out.Float (Stat.median (List.init 5 (fun _ -> calib ()))));
    ]

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line
  with Unix.Unix_error _ -> "unknown"

(* one child process per measurement: a fresh heap and its own VmHWM *)
let child args =
  let argv = Array.of_list (Sys.executable_name :: "measure" :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED (0 | 1) -> ()
  | _ -> die "measurement %s died" (String.concat " " args)

let run args =
  let names = ref [] and seed = ref 7 and seconds = ref default_seconds in
  let quick = ref false and spans = ref None and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> names := w :: !names; parse rest
    | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_arg "--seconds" s; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--trace" :: f :: rest -> spans := Some f; parse rest
    | "--json" :: f :: rest -> json := Some f; parse rest
    | a :: _ -> die "run: unexpected argument %s" a
  in
  parse args;
  let out = match !json with Some f -> f | None -> die "run: --json OUT.json is required" in
  let ws =
    match List.rev !names with
    | [] -> Suite.workloads
    | l -> List.map workload_exn l
  in
  let common w =
    [ "--workload"; w.Suite.name; "--seed"; string_of_int !seed; "--seconds";
      Printf.sprintf "%g" !seconds ]
    @ if !quick then [ "--quick" ] else []
  in
  let load f =
    let j = Compare.parse f in
    Sys.remove f;
    j
  in
  let all_ok = ref true in
  let records =
    List.map
      (fun w ->
        let base = Printf.sprintf "%s.%s" out w.Suite.name in
        child (common w @ [ "--trace"; "0"; "--record"; base ^ ".0" ]);
        let untraced = load (base ^ ".0") in
        let traced =
          Option.map
            (fun _ ->
              child
                (common w
                @ [ "--trace"; "1"; "--record"; base ^ ".1"; "--spans"; base ^ ".spans" ]);
              load (base ^ ".1"))
            !spans
        in
        let get k j = Option.value ~default:Json_out.Null (Compare.field k j) in
        let ok j = get "correct" j = Json_out.Bool true in
        if not (ok untraced && Option.fold ~none:true ~some:ok traced) then
          all_ok := false;
        let fields =
          List.map (fun k -> (k, get k untraced))
            [ "correct"; "attempted"; "failed"; "checks"; "end_to_end"; "counts"; "info" ]
          @
          match traced with
          | None -> []
          | Some t ->
            [
              ("traced_correct", get "correct" t);
              ("traced_checks", get "checks" t);
              ("per_layer", get "per_layer" t);
              ("traced_info", get "info" t);
            ]
        in
        (w.Suite.name, Json_out.Obj fields))
      ws
  in
  (match !spans with
  | None -> ()
  | Some f ->
    Out_channel.with_open_bin f (fun oc ->
        List.iter
          (fun w ->
            let part = Printf.sprintf "%s.%s.spans" out w.Suite.name in
            if Sys.file_exists part then begin
              output_string oc (In_channel.with_open_bin part In_channel.input_all);
              Sys.remove part
            end)
          ws));
  let doc =
    Json_out.Obj
      [
        ("schema", Json_out.Str "clocksync-bench-suite/1");
        ("commit", Json_out.Str (git_commit ()));
        ("seed", Json_out.Int !seed);
        ("seconds", Json_out.Float !seconds);
        ("quick", Json_out.Bool !quick);
        ("fingerprint", fingerprint ());
        ("workloads", Json_out.Obj records);
      ]
  in
  Json_out.write out doc;
  (* the same lines [measure] prints, for every workload *)
  List.iter
    (fun (w, j) ->
      List.iter
        (fun section ->
          match Compare.field section j with
          | Some (Json_out.Obj l) ->
            List.iter
              (fun (m, v) ->
                let value, unit =
                  match v with
                  | Json_out.Obj _ ->
                    (Compare.num (Compare.field "value" v), Compare.str (Compare.field "unit" v))
                  | v -> (Compare.num (Some v), None)
                in
                Printf.printf "%s %s %s %s\n" w m
                  (match value with Some x -> Json_out.float_repr x | None -> "null")
                  (Option.value ~default:(Suite.unit_of m) unit))
              l
          | _ -> ())
        [ "end_to_end"; "counts"; "per_layer" ])
    records;
  Printf.printf "wrote %s\n" out;
  if not !all_ok then exit 1

(* ---- compare ---- *)

let compare_cmd args =
  let benchmark = ref "BENCHMARK.json" in
  let rec files acc = function
    | "--benchmark" :: f :: rest -> benchmark := f; files acc rest
    | x :: rest -> files (x :: acc) rest
    | [] -> List.rev acc
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "compare: expected PARENT.json... -- CHANGE.json..."
  in
  let parent, change = split [] (files [] args) in
  if parent = [] || change = [] then die "compare: both sides need at least one file";
  if not (Compare.run ~benchmark:!benchmark ~parent ~change) then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "measure" :: args -> measure args
  | "run" :: args -> run args
  | "compare" :: args -> compare_cmd args
  | [ "list" ] ->
    List.iter (fun w -> Printf.printf "%-18s %s\n" w.Suite.name w.Suite.why) Suite.workloads
  | _ -> die "usage: main.exe (measure|run|compare|list) ..."
