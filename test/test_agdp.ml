(* Tests for the AGDP structure (Section 3.2): the succinct live-node graph
   must report exactly the distances of the full accumulated graph
   (Lemma 3.4), at O(L^2) incremental cost (Lemma 3.5). *)

let q = Q.of_int
let ext = Alcotest.testable Ext.pp Ext.equal
let fin n = Ext.Fin (q n)

let test_single_node () =
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Alcotest.(check int) "size" 1 (Agdp.size t);
  Alcotest.(check ext) "self distance" (fin 0) (Agdp.dist t 0 0);
  Alcotest.(check bool) "mem" true (Agdp.mem t 0);
  Alcotest.(check bool) "not mem" false (Agdp.mem t 1)

let test_chain () =
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Agdp.insert t ~key:1 ~in_edges:[ (0, 3) ] ~out_edges:[ (0, 5) ];
  Agdp.insert t ~key:2 ~in_edges:[ (1, 2) ] ~out_edges:[ (1, 7) ];
  Alcotest.(check ext) "0->2" (fin 5) (Agdp.dist t 0 2);
  Alcotest.(check ext) "2->0" (fin 12) (Agdp.dist t 2 0);
  Alcotest.(check ext) "0->1" (fin 3) (Agdp.dist t 0 1)

let test_kill_preserves_distances () =
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Agdp.insert t ~key:1 ~in_edges:[ (0, 3) ] ~out_edges:[];
  Agdp.insert t ~key:2 ~in_edges:[ (1, 2) ] ~out_edges:[];
  (* 0 -> 1 -> 2; kill 1, path through it must be remembered *)
  Agdp.kill t 1;
  Alcotest.(check int) "size after kill" 2 (Agdp.size t);
  Alcotest.(check ext) "0->2 survives" (fin 5) (Agdp.dist t 0 2);
  Alcotest.(check bool) "1 is dead" false (Agdp.mem t 1);
  Alcotest.check_raises "dist on dead node"
    (Invalid_argument "Agdp: node 1 is not live") (fun () ->
      ignore (Agdp.dist t 0 1))

let test_insert_improves_pairs () =
  (* new node creates a shortcut between two old nodes *)
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Agdp.insert t ~key:1 ~in_edges:[ (0, 100) ] ~out_edges:[];
  Alcotest.(check ext) "long way" (fin 100) (Agdp.dist t 0 1);
  Agdp.insert t ~key:2 ~in_edges:[ (0, 1) ] ~out_edges:[ (1, 1) ];
  Alcotest.(check ext) "shortcut through new node" (fin 2) (Agdp.dist t 0 1)

let test_negative_edges () =
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Agdp.insert t ~key:1 ~in_edges:[ (0, -4) ] ~out_edges:[ (0, 9) ];
  Alcotest.(check ext) "negative forward" (fin (-4)) (Agdp.dist t 0 1);
  Alcotest.(check ext) "positive back" (fin 9) (Agdp.dist t 1 0)

let test_negative_cycle_detected () =
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Alcotest.check_raises "negative cycle" Agdp.Negative_cycle (fun () ->
      Agdp.insert t ~key:1 ~in_edges:[ (0, 2) ] ~out_edges:[ (0, -3) ])

(* Phase 2 decides a 2-cycle's sign exactly, down to one unit of the
   finest lattice: with D = 2^40, a - a - 1/D is a negative cycle and
   a - a + 1/D is not. *)
let test_negative_cycle_unit () =
  let d = 1 lsl 40 in
  let a = d + 1 and b sigma = -(d + 1) + sigma in
  let two_node sigma =
    let t = Agdp.create ~scale:(1 lsl 40) () in
    Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
    Agdp.insert t ~key:1 ~in_edges:[ (0, a) ] ~out_edges:[ (0, b sigma) ];
    t
  in
  Alcotest.check_raises "a + b < 0 by 2^-40" Agdp.Negative_cycle (fun () ->
      ignore (two_node (-1)));
  let t = two_node 1 in
  Alcotest.(check ext) "0->1" (Ext.Fin (Q.make_ints a d)) (Agdp.dist t 0 1);
  Alcotest.(check ext) "1->0" (Ext.Fin (Q.make_ints (b 1) d)) (Agdp.dist t 1 0)

let test_validation () =
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Agdp.insert: duplicate key 0") (fun () ->
      Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[]);
  Alcotest.check_raises "dead endpoint"
    (Invalid_argument "Agdp: node 7 is not live") (fun () ->
      Agdp.insert t ~key:1 ~in_edges:[ (7, 1) ] ~out_edges:[]);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Agdp.insert: self-loop edge") (fun () ->
      Agdp.insert t ~key:1 ~in_edges:[ (1, 1) ] ~out_edges:[]);
  Alcotest.check_raises "kill dead"
    (Invalid_argument "Agdp: node 9 is not live") (fun () -> Agdp.kill t 9);
  Alcotest.check_raises "weight out of range"
    (Invalid_argument
       "Agdp.insert: a distance leaves the lattice's ±(2^61 − 1)/D range")
    (fun () -> Agdp.insert t ~key:1 ~in_edges:[ (0, 1 lsl 61) ] ~out_edges:[]);
  Alcotest.check_raises "scale past 2^40"
    (Invalid_argument "Agdp: scale 1099511627777 is outside [1, 2^40]")
    (fun () -> ignore (Agdp.create ~scale:((1 lsl 40) + 1) ()));
  Alcotest.(check int) "rejections left it as it was" 1 (Agdp.size t)

let test_growth_beyond_capacity () =
  (* exceed the initial capacity to exercise matrix growth *)
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  for k = 1 to 40 do
    Agdp.insert t ~key:k
      ~in_edges:[ (k - 1, 1) ]
      ~out_edges:[ (k - 1, 1) ]
  done;
  Alcotest.(check int) "size" 41 (Agdp.size t);
  Alcotest.(check ext) "end to end" (fin 40) (Agdp.dist t 0 40);
  Alcotest.(check ext) "and back" (fin 40) (Agdp.dist t 40 0);
  Alcotest.(check int) "peak" 41 (Agdp.peak_size t)

let test_kill_slot_swapping () =
  (* kill in the middle repeatedly; the swap-with-last bookkeeping must
     keep key/slot maps consistent *)
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  for k = 1 to 10 do
    Agdp.insert t ~key:k
      ~in_edges:[ (k - 1, k) ]
      ~out_edges:[ (k - 1, k) ]
  done;
  (* distance 0 -> 10 is 1+2+...+10 = 55 *)
  Alcotest.(check ext) "before kills" (fin 55) (Agdp.dist t 0 10);
  List.iter (Agdp.kill t) [ 3; 7; 1; 9; 5 ];
  Alcotest.(check int) "size" 6 (Agdp.size t);
  Alcotest.(check ext) "distance preserved" (fin 55) (Agdp.dist t 0 10);
  Alcotest.(check ext) "partial" (fin 3) (Agdp.dist t 0 2);
  Alcotest.(check (list int)) "live keys" [ 0; 2; 4; 6; 8; 10 ]
    (Agdp.live_keys t)

let test_insert_exception_safety () =
  (* regression guard for the validate-then-commit insert: a rejected
     insertion must leave the structure exactly as it was, not with a
     half-written row/column or a phantom key *)
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  Agdp.insert t ~key:1 ~in_edges:[ (0, 3) ] ~out_edges:[ (0, 5) ];
  Agdp.insert t ~key:2 ~in_edges:[ (1, 2) ] ~out_edges:[ (1, 7) ];
  let keys = Agdp.live_keys t in
  let all_dists () =
    List.concat_map (fun x -> List.map (fun y -> Agdp.dist t x y) keys) keys
  in
  let dists = all_dists () in
  let relaxations = Agdp.relaxations t in
  (* 9 -> 0 weighs -20 but 0 ⇝ 2 -> 9 weighs 6: a -14 cycle *)
  Alcotest.check_raises "rejected" Agdp.Negative_cycle (fun () ->
      Agdp.insert t ~key:9 ~in_edges:[ (2, 1) ] ~out_edges:[ (0, -20) ]);
  Alcotest.(check int) "size unchanged" 3 (Agdp.size t);
  Alcotest.(check bool) "key not half-inserted" false (Agdp.mem t 9);
  Alcotest.(check (list int)) "live keys unchanged" keys (Agdp.live_keys t);
  Alcotest.(check (list ext)) "distances unchanged" dists (all_dists ());
  Alcotest.(check int) "relaxation counter unchanged" relaxations
    (Agdp.relaxations t);
  (* the structure stays fully usable after the rejection *)
  Agdp.insert t ~key:3 ~in_edges:[ (2, 1) ] ~out_edges:[];
  Alcotest.(check ext) "subsequent insert works" (fin 6) (Agdp.dist t 0 3)

let test_kill_shrinks_capacity () =
  (* regression: kill never reclaimed matrix capacity, pinning the
     cap^2 footprint at the historical peak forever *)
  let t = Agdp.create ~scale:1 () in
  Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
  for k = 1 to 99 do
    Agdp.insert t ~key:k
      ~in_edges:[ (k - 1, 1) ]
      ~out_edges:[ (k - 1, 1) ]
  done;
  Alcotest.(check int) "grown to 128" 128 (Agdp.capacity t);
  for k = 0 to 96 do
    Agdp.kill t k
  done;
  (* capacity halves each time occupancy hits a quarter, down to the
     floor, and the surviving distances move intact *)
  Alcotest.(check int) "shrunk to the floor" 8 (Agdp.capacity t);
  Alcotest.(check int) "live count" 3 (Agdp.size t);
  Alcotest.(check ext) "distances survive shrinking" (fin 2)
    (Agdp.dist t 97 99);
  Alcotest.(check ext) "and backwards" (fin 2) (Agdp.dist t 99 97);
  let t' = Agdp.restore (Agdp.snapshot t) in
  Alcotest.(check ext) "snapshot round-trips a shrunk matrix" (fin 2)
    (Agdp.dist t' 97 99);
  List.iter (Agdp.kill t) [ 97; 98; 99 ];
  Alcotest.(check int) "never below the initial capacity" 8 (Agdp.capacity t);
  (* still fully usable at the floor *)
  Agdp.insert t ~key:1000 ~in_edges:[] ~out_edges:[];
  Alcotest.(check ext) "reusable after full churn" (fin 0)
    (Agdp.dist t 1000 1000)

(* An insert's row and column are scratch kept with the matrix, and
   its row loop builds no closure: at steady capacity one insert plus
   one kill allocates the same words whatever L. *)
let test_insert_words_flat () =
  let words l =
    let t = Agdp.create ~scale:1 () in
    let step k =
      Agdp.insert t ~key:k ~in_edges:[ (k - 1, 1) ] ~out_edges:[ (k - 1, 1) ];
      Agdp.kill t (k - l)
    in
    Agdp.insert t ~key:0 ~in_edges:[] ~out_edges:[];
    for k = 1 to l - 1 do
      Agdp.insert t ~key:k ~in_edges:[ (k - 1, 1) ] ~out_edges:[ (k - 1, 1) ]
    done;
    for k = l to l + 63 do
      step k
    done;
    let w0 = Gc.minor_words () in
    for k = l + 64 to l + 163 do
      step k
    done;
    (Gc.minor_words () -. w0) /. 100.
  in
  let base = words 2 in
  List.iter
    (fun l ->
      Alcotest.(check (float 0.)) (Printf.sprintf "words at L=%d" l) base
        (words l))
    [ 14; 28 ]

let test_restore_rejects_inconsistent () =
  (* matrices no insert/kill sequence can produce: restore must refuse
     each before building anything (a duplicate key used to leave a
     phantom live node behind after one kill) *)
  let snap ?(scale = 1) keys cells =
    {
      Agdp.s_scale = scale;
      s_keys = keys;
      s_cells = cells;
      s_relaxations = 0;
      s_peak = 2;
    }
  in
  let rejects name s =
    match Agdp.restore s with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "duplicate keys" (snap [| 5; 5 |] [| 0; 1; 1; 0 |]);
  rejects "negative 2-cycle" (snap [| 1; 2 |] [| 0; -3; 1; 0 |]);
  rejects "non-zero diagonal" (snap [| 1; 2 |] [| 7; 1; 1; 0 |]);
  rejects "matrix size" (snap [| 1; 2 |] [| 0; 1; 1 |]);
  rejects "cell out of range" (snap [| 1; 2 |] [| 0; 1 lsl 61; 1; 0 |]);
  rejects "scale out of range" (snap ~scale:0 [| 1; 2 |] [| 0; 1; 1; 0 |]);
  (* the consistent matrix of the same shape restores, "no path"
     included *)
  let t = Agdp.restore (snap ~scale:2 [| 1; 2 |] [| 0; 3; max_int; 0 |]) in
  Alcotest.(check ext) "distance" (Ext.Fin (Q.of_ints 3 2)) (Agdp.dist t 1 2);
  Alcotest.(check ext) "no path" Ext.Inf (Agdp.dist t 2 1)

(* Property: drive AGDP with a random insert/kill schedule and compare
   every pairwise distance against Floyd-Warshall on the full accumulated
   graph (the Lemma 3.4 invariant). *)
let arbitrary_schedule =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 25)
        (pair (list_size (int_range 0 3) (int_range 0 100))
           (list_size (int_range 0 3) (int_range 0 100))))
  in
  make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (fun (i, o) ->
             Printf.sprintf "ins(in:%s out:%s)"
               (String.concat "," (List.map string_of_int i))
               (String.concat "," (List.map string_of_int o)))
           ops))
    gen

let prop_matches_full_graph =
  QCheck.Test.make ~name:"agdp: distances equal full-graph distances"
    ~count:150 arbitrary_schedule (fun ops ->
      let t = Agdp.create ~scale:1 () in
      (* full accumulated graph mirrored as edge list *)
      let all_edges = ref [] in
      let live = ref [] in
      let n_nodes = ref 0 in
      let ok = ref true in
      List.iter
        (fun (ins, outs) ->
          let k = !n_nodes in
          incr n_nodes;
          let pick targets =
            (* map each random number to a currently-live node *)
            List.filter_map
              (fun r ->
                match !live with
                | [] -> None
                | l -> Some (List.nth l (r mod List.length l)))
              targets
          in
          let in_nodes = List.sort_uniq compare (pick ins) in
          let out_nodes = List.sort_uniq compare (pick outs) in
          (* weights chosen non-negative so no negative cycles arise *)
          let in_edges = List.map (fun x -> (x, (x + k) mod 7)) in_nodes in
          let out_edges = List.map (fun y -> (y, (y + (2 * k)) mod 5)) out_nodes in
          Agdp.insert t ~key:k ~in_edges ~out_edges;
          List.iter (fun (x, w) -> all_edges := (x, k, q w) :: !all_edges) in_edges;
          List.iter (fun (y, w) -> all_edges := (k, y, q w) :: !all_edges) out_edges;
          live := k :: !live;
          (* kill every third node deterministically *)
          (match !live with
          | _ :: victim :: _ when victim mod 3 = 0 ->
            Agdp.kill t victim;
            live := List.filter (fun x -> x <> victim) !live
          | _ -> ());
          (* compare all live-pair distances against the full graph *)
          let g = Digraph.create !n_nodes in
          List.iter (fun (u, v, w) -> Digraph.add_edge g u v w) !all_edges;
          let d = Floyd_warshall.apsp g in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  if not (Ext.equal (Agdp.dist t x y) d.(x).(y)) then ok := false)
                !live)
            !live)
        ops;
      !ok)

(* Same invariant under fractional weights and churn, on the lattice
   D = 60.  Two weight generators:
   - [Small]: denominators 1..5 (all dividing 60); every insert is
     accepted, and a snapshot restores to the same keys and distances;
   - [Huge]: 2^55 plus the small weight.  One such weight fits the
     lattice's ±(2^61 − 1)/D range, but any two-edge sum leaves it, so
     an insert carrying both an in- and an out-edge (a two-edge path
     through it) must raise [Invalid_argument] — never wrap — and leave
     the structure exactly as it was; the schedule then goes on
     without that node. *)
type wgen = Small | Huge

let arbitrary_wgen_schedule =
  let open QCheck in
  pair
    (make
       ~print:(function Small -> "small" | Huge -> "huge")
       Gen.(frequency [ (3, return Small); (1, return Huge) ]))
    arbitrary_schedule

let scale = 60

(* [w·D] *)
let cell w = Option.get (Bigint.to_int_opt (Q.num (Q.mul_int w scale)))

let prop_fractional_matches_full_graph =
  QCheck.Test.make
    ~name:"agdp: fractional weights match Floyd-Warshall"
    ~count:90 arbitrary_wgen_schedule (fun (wgen, ops) ->
      let weight u k =
        let small = Q.of_ints ((u + k) mod 7) (1 + ((u + (2 * k)) mod 5)) in
        match wgen with
        | Small -> small
        | Huge -> Q.add (Q.of_int (1 lsl 55)) small
      in
      let t = Agdp.create ~scale () in
      let all_edges = ref [] in
      let live = ref [] in
      let n_nodes = ref 0 in
      let ok = ref true in
      List.iter
        (fun (ins, outs) ->
          let k = !n_nodes in
          incr n_nodes;
          let pick targets =
            List.filter_map
              (fun r ->
                match !live with
                | [] -> None
                | l -> Some (List.nth l (r mod List.length l)))
              targets
          in
          let in_nodes = List.sort_uniq compare (pick ins) in
          let out_nodes = List.sort_uniq compare (pick outs) in
          let in_edges = List.map (fun x -> (x, weight x k)) in_nodes in
          let out_edges = List.map (fun y -> (y, weight (3 * y) k)) out_nodes in
          let cells = List.map (fun (x, w) -> (x, cell w)) in
          let before = Agdp.snapshot t in
          (match
             Agdp.insert t ~key:k ~in_edges:(cells in_edges)
               ~out_edges:(cells out_edges)
           with
          | () ->
            if wgen = Huge && in_edges <> [] && out_edges <> [] then
              ok := false;
            List.iter (fun (x, w) -> all_edges := (x, k, w) :: !all_edges) in_edges;
            List.iter (fun (y, w) -> all_edges := (k, y, w) :: !all_edges) out_edges;
            live := k :: !live
          | exception Invalid_argument _ ->
            if wgen = Small || Agdp.snapshot t <> before then ok := false);
          (match !live with
          | _ :: victim :: _ when victim mod 3 = 0 ->
            Agdp.kill t victim;
            live := List.filter (fun x -> x <> victim) !live
          | _ -> ());
          let g = Digraph.create !n_nodes in
          List.iter (fun (u, v, w) -> Digraph.add_edge g u v w) !all_edges;
          let d = Floyd_warshall.apsp g in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  if not (Ext.equal (Agdp.dist t x y) d.(x).(y)) then
                    ok := false)
                !live)
            !live)
        ops;
      (* a snapshot restores with the same keys and distances and
         snapshots again to itself *)
      let s = Agdp.snapshot t in
      let t' = Agdp.restore s in
      if Agdp.live_keys t' <> Agdp.live_keys t || Agdp.snapshot t' <> s then
        ok := false;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "agdp"
    [
      ( "unit",
        [
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "chain distances" `Quick test_chain;
          Alcotest.test_case "kill preserves distances" `Quick
            test_kill_preserves_distances;
          Alcotest.test_case "insert improves pairs" `Quick
            test_insert_improves_pairs;
          Alcotest.test_case "negative edges" `Quick test_negative_edges;
          Alcotest.test_case "negative cycle detected" `Quick
            test_negative_cycle_detected;
          Alcotest.test_case "negative cycle by one lattice unit" `Quick
            test_negative_cycle_unit;
          Alcotest.test_case "argument validation" `Quick test_validation;
          Alcotest.test_case "growth beyond capacity" `Quick
            test_growth_beyond_capacity;
          Alcotest.test_case "kill slot swapping" `Quick test_kill_slot_swapping;
          Alcotest.test_case "insert exception safety" `Quick
            test_insert_exception_safety;
          Alcotest.test_case "insert words flat in L" `Quick
            test_insert_words_flat;
          Alcotest.test_case "kill shrinks capacity" `Quick
            test_kill_shrinks_capacity;
          Alcotest.test_case "restore rejects inconsistent snapshots" `Quick
            test_restore_rejects_inconsistent;
        ] );
      qsuite "props"
        [ prop_matches_full_graph; prop_fractional_matches_full_graph ];
    ]
