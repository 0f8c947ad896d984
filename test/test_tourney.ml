(* Tournament subsystem: the scenario-family x algorithm grid must be
   structurally complete (every requested cell present, ranks a
   permutation), the optimal CSA must be sound in every cell and lead
   the static families on median width, and the spec validation must
   reject grids the scoring rules cannot make sense of. *)

let q = Q.of_int

let small_spec =
  {
    Tourney.default_spec with
    Tourney.nodes = 4;
    duration = q 6;
    seed = 5;
  }

(* one shared small run: the grid is deterministic from the spec, and
   the checks below look at different facets of the same outcome *)
let outcome = lazy (Tourney.run small_spec)

let test_grid_shape () =
  let o = Lazy.force outcome in
  let fams = List.map (fun d -> d.Tourney.family) o.Tourney.duels in
  Alcotest.(check (list string))
    "every family ran, in declaration order"
    (List.map (fun f -> f.Tourney.fam_name) Tourney.all_families)
    fams;
  List.iter
    (fun d ->
      let algos = List.map (fun c -> c.Tourney.algo) d.Tourney.cells in
      Alcotest.(check (list string))
        (d.Tourney.family ^ ": every algorithm scored")
        (List.sort compare Tourney.algo_names)
        (List.sort compare algos);
      Alcotest.(check (list int))
        (d.Tourney.family ^ ": ranks are 1..n in table order")
        (List.init (List.length algos) (fun i -> i + 1))
        (List.map (fun c -> c.Tourney.rank) d.Tourney.cells);
      Alcotest.(check bool)
        (d.Tourney.family ^ ": cells sorted by median width")
        true
        (let rec mono = function
           | a :: (b :: _ as rest) ->
             a.Tourney.p50 <= b.Tourney.p50 && mono rest
           | _ -> true
         in
         mono d.Tourney.cells);
      Alcotest.(check bool)
        (d.Tourney.family ^ ": traffic flowed")
        true (d.Tourney.messages > 0))
    o.Tourney.duels

let test_csa_checks () =
  let o = Lazy.force outcome in
  (match Tourney.check_csa_sound o with
  | Ok () -> ()
  | Error e -> Alcotest.failf "CSA unsound: %s" e);
  match Tourney.check_csa_leads_static o with
  | Ok () -> ()
  | Error e -> Alcotest.failf "CSA trailed a baseline: %s" e

let test_dynamic_families_lose_messages () =
  let o = Lazy.force outcome in
  List.iter
    (fun d ->
      if d.Tourney.family = "churn" || d.Tourney.family = "partition-heal"
      then
        Alcotest.(check bool)
          (d.Tourney.family ^ ": dynamics actually lost messages")
          true
          (d.Tourney.lost > 0))
    o.Tourney.duels

let test_family_of_name () =
  (match Tourney.family_of_name "churn" with
  | Ok f -> Alcotest.(check string) "lookup" "churn" f.Tourney.fam_name
  | Error e -> Alcotest.failf "churn rejected: %s" e);
  match Tourney.family_of_name "no-such-family" with
  | Ok _ -> Alcotest.fail "unknown family accepted"
  | Error _ -> ()

(* Execution-identity pin: the JSON of a short two-family grid with every
   algorithm, digested.  Re-recorded when readings became floor ticks
   (same message counts; widths moved by a few ticks, and payload bytes
   by the timestamps' varint lengths), and again when a timestamp became
   one varint of ticks (only the two families' payload_bytes moved). *)
let test_json_pin () =
  let fam name =
    match Tourney.family_of_name name with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let o =
    Tourney.run
      { small_spec with Tourney.families = [ fam "ntp-poll"; fam "churn" ] }
  in
  Alcotest.(check string)
    "json digest" "06a3e15716f23706c52a1386a46c7d4a"
    (Digest.to_hex
       (Digest.string (Json_out.to_line (Tourney.json_of_outcome o))))

let check_rejected label spec =
  match Tourney.run spec with
  | _ -> Alcotest.failf "%s accepted" label
  | exception Invalid_argument _ -> ()

let test_spec_validation () =
  check_rejected "unknown algorithm"
    { small_spec with Tourney.algos = [ "optimal"; "sundial" ] };
  check_rejected "missing optimal"
    { small_spec with Tourney.algos = [ Ntp.name; Cristian.name ] };
  check_rejected "two nodes" { small_spec with Tourney.nodes = 2 };
  check_rejected "no families" { small_spec with Tourney.families = [] }

let () =
  Alcotest.run "tourney"
    [
      ( "grid",
        [
          Alcotest.test_case "shape" `Quick test_grid_shape;
          Alcotest.test_case "CSA sound and leads static" `Quick
            test_csa_checks;
          Alcotest.test_case "dynamic families lose messages" `Quick
            test_dynamic_families_lose_messages;
          Alcotest.test_case "json pin, two families" `Quick test_json_pin;
        ] );
      ( "spec",
        [
          Alcotest.test_case "family lookup" `Quick test_family_of_name;
          Alcotest.test_case "bad specs refused" `Quick test_spec_validation;
        ] );
    ]
