(* Tests for real-time specifications: drift bounds, transit bounds, system
   topology, and synchronization-graph edge weights (Definition 2.1). *)

let q = Q.of_int
let qd = Q.of_decimal_string

let test_drift () =
  let d = Drift.of_ppm 100 in
  Alcotest.(check string) "rmin" "9999/10000" (Q.to_string d.Drift.rmin);
  Alcotest.(check string) "rmax" "10001/10000" (Q.to_string d.Drift.rmax);
  Alcotest.(check bool) "perfect" true (Drift.is_perfect Drift.perfect);
  Alcotest.(check bool) "not perfect" false (Drift.is_perfect d);
  Alcotest.(check string) "max deviation" "1/10000"
    (Q.to_string (Drift.max_deviation d));
  let lo, hi = Drift.rt_bounds d (q 10000) in
  Alcotest.(check string) "rt lo" "9999" (Q.to_string lo);
  Alcotest.(check string) "rt hi" "10001" (Q.to_string hi);
  Alcotest.check_raises "negative elapse"
    (Invalid_argument "Drift.rt_bounds: negative elapse") (fun () ->
      ignore (Drift.rt_bounds d (q (-1))));
  Alcotest.check_raises "bad ppm"
    (Invalid_argument "Drift.of_ppm: out of range") (fun () ->
      ignore (Drift.of_ppm 1_000_000));
  Alcotest.check_raises "rmin <= 0"
    (Invalid_argument "Drift.make: rmin must be positive") (fun () ->
      ignore (Drift.make ~rmin:Q.zero ~rmax:Q.one));
  Alcotest.check_raises "rmax < rmin"
    (Invalid_argument "Drift.make: rmax < rmin") (fun () ->
      ignore (Drift.make ~rmin:Q.one ~rmax:(qd "0.5")))

let test_transit () =
  let tr = Transit.of_q (q 1) (q 5) in
  Alcotest.(check string) "lo" "1" (Q.to_string tr.Transit.lo);
  Alcotest.(check bool) "hi" true (Ext.equal tr.Transit.hi (Ext.Fin (q 5)));
  let a = Transit.asynchronous in
  Alcotest.(check bool) "async hi" true (Ext.equal a.Transit.hi Ext.Inf);
  Alcotest.(check bool) "async lo" true (Q.is_zero a.Transit.lo);
  let e = Transit.exact (q 3) in
  Alcotest.(check bool) "exact" true
    (Q.(e.Transit.lo = q 3) && Ext.equal e.Transit.hi (Ext.Fin (q 3)));
  Alcotest.check_raises "negative lo"
    (Invalid_argument "Transit.make: negative lower bound") (fun () ->
      ignore (Transit.of_q (q (-1)) (q 5)));
  Alcotest.check_raises "hi < lo"
    (Invalid_argument "Transit.make: hi < lo") (fun () ->
      ignore (Transit.of_q (q 5) (q 1)))

let star_spec n =
  System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:(List.init (n - 1) (fun i -> (0, i + 1)))

let test_system_spec () =
  let s = star_spec 4 in
  Alcotest.(check int) "n" 4 (System_spec.n s);
  Alcotest.(check int) "source" 0 (System_spec.source s);
  Alcotest.(check bool) "source drift forced perfect" true
    (Drift.is_perfect (System_spec.drift s 0));
  Alcotest.(check bool) "others drift" false
    (Drift.is_perfect (System_spec.drift s 1));
  Alcotest.(check (list int)) "hub neighbors" [ 1; 2; 3 ]
    (System_spec.neighbors s 0);
  Alcotest.(check (list int)) "leaf neighbors" [ 0 ] (System_spec.neighbors s 2);
  Alcotest.(check bool) "transit both directions" true
    (System_spec.transit s 1 0 <> None && System_spec.transit s 0 1 <> None);
  Alcotest.(check bool) "no link between leaves" true
    (System_spec.transit s 1 2 = None);
  Alcotest.(check int) "links" 3 (System_spec.n_links s);
  Alcotest.(check int) "degree hub" 3 (System_spec.degree s 0);
  Alcotest.(check int) "max degree" 3 (System_spec.max_degree s);
  Alcotest.(check int) "diameter" 2 (System_spec.diameter s);
  Alcotest.(check bool) "connected" true (System_spec.is_connected s)

let test_system_spec_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "System_spec.make: self-loop") (fun () ->
      ignore
        (System_spec.uniform ~n:2 ~source:0 ~drift:Drift.perfect
           ~transit:Transit.asynchronous ~links:[ (1, 1) ]));
  Alcotest.check_raises "duplicate link"
    (Invalid_argument "System_spec.make: duplicate link") (fun () ->
      ignore
        (System_spec.uniform ~n:2 ~source:0 ~drift:Drift.perfect
           ~transit:Transit.asynchronous
           ~links:[ (0, 1); (1, 0) ]));
  let disconnected =
    System_spec.uniform ~n:3 ~source:0 ~drift:Drift.perfect
      ~transit:Transit.asynchronous ~links:[ (0, 1) ]
  in
  Alcotest.(check bool) "disconnected" false
    (System_spec.is_connected disconnected)

(* Over whole-tick readings every weight lies in (1/D)·Z: D is the lcm
   of the tick's, (rmax − 1)·tick's, (1 − rmin)·tick's and the transit
   bounds' denominators, refused past 2^40 with the bound that does it *)
let test_lattice () =
  let spec ~drift ~lo =
    System_spec.uniform ~n:2 ~source:0 ~drift
      ~transit:(Transit.of_q lo Q.one)
      ~links:[ (0, 1) ]
  in
  Alcotest.(check int) "100 ppm, ms bounds" 10_000_000_000
    (System_spec.lattice (spec ~drift:(Drift.of_ppm 100) ~lo:(Q.of_ints 1 1000)));
  Alcotest.(check int) "37 ppm" 1_000_000_000_000
    (System_spec.lattice (spec ~drift:(Drift.of_ppm 37) ~lo:Q.zero));
  Alcotest.check_raises "a transit bound past 2^40"
    (Invalid_argument
       "System_spec.make: the transit bound of link 0-1 puts the lattice \
        denominator past 2^40") (fun () ->
      ignore (spec ~drift:(Drift.of_ppm 37) ~lo:(Q.of_ints 1 3)));
  let fine = Q.make Bigint.one (Bigint.pow2 21) in
  Alcotest.check_raises "a drift bound past 2^40"
    (Invalid_argument
       "System_spec.make: the drift bound of processor 1 puts the lattice \
        denominator past 2^40") (fun () ->
      ignore
        (spec
           ~drift:(Drift.make ~rmin:Q.one ~rmax:(Q.add Q.one fine))
           ~lo:Q.zero))

(* charging widens every transit bound by q = ceil(rmax) ticks both ways
   and every estimate's upper end by q, keeping D *)
let test_charge () =
  let s = star_spec 3 in
  let c = System_spec.charge s in
  let q2 = Q.mul_int System_spec.tick 2 in
  Alcotest.(check bool) "declared quantum" true
    (Q.is_zero (System_spec.quantum s));
  Alcotest.(check bool) "quantum: 2 ticks" true
    (Q.equal q2 (System_spec.quantum c));
  Alcotest.(check bool) "transit widened" true
    (Transit.equal
       (System_spec.transit_exn c 1 0)
       (Transit.widen q2 (System_spec.transit_exn s 1 0)));
  Alcotest.(check int) "same lattice" (System_spec.lattice s)
    (System_spec.lattice c);
  Alcotest.(check bool) "charged once" true
    (System_spec.charge s == c && System_spec.charge c == c);
  let i = Interval.of_q Q.one (Q.of_int 2) in
  Alcotest.(check bool) "estimate covers" true
    (Interval.equal (System_spec.cover c i)
       (Interval.of_q Q.one (Q.add (Q.of_int 2) q2)));
  Alcotest.(check bool) "declared estimate as is" true
    (Interval.equal (System_spec.cover s i) i)

(* a reading of [n] seconds, in ticks *)
let secs n = n * System_spec.ticks_per_second

(* an edge's cell [w·D] read back as the weight [w] *)
let weight s (e : Edges.edge) = Q.make_ints e.w (System_spec.lattice s)

let test_edge_weights () =
  let s = star_spec 2 in
  (* consecutive events at drifting p1: elapse 20 s *)
  let prev =
    { Event.id = { proc = 1; seq = 0 }; lt = 0; kind = Event.Init }
  in
  let next =
    { Event.id = { proc = 1; seq = 1 }; lt = secs 20; kind = Event.Internal }
  in
  (match Edges.proc_edges s ~prev ~next with
  | [ e1; e2 ] ->
    (* (rmax − 1)·20 = 20/10000 = 1/500 on next → prev *)
    Alcotest.(check bool) "next->prev" true
      (Event.id_equal e1.Edges.src next.id
      && Event.id_equal e1.Edges.dst prev.id
      && Q.(weight s e1 = Q.of_ints 1 500));
    Alcotest.(check bool) "prev->next" true
      (Event.id_equal e2.Edges.src prev.id
      && Q.(weight s e2 = Q.of_ints 1 500))
  | _ -> Alcotest.fail "expected two proc edges");
  (* source edges are zero-weight in both directions *)
  let sprev = { Event.id = { proc = 0; seq = 0 }; lt = 0; kind = Event.Init } in
  let snext =
    { Event.id = { proc = 0; seq = 1 }; lt = secs 9; kind = Event.Internal }
  in
  (match Edges.proc_edges s ~prev:sprev ~next:snext with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "source edges zero" true
      (e1.Edges.w = 0 && e2.Edges.w = 0)
  | _ -> Alcotest.fail "expected two proc edges");
  (* message edges: send at lt 10 (p0), recv at lt 20 (p1), transit [1,5]:
     forward = vd − lo = 10 − 1 = 9; backward = hi − vd = 5 − 10 = −5 *)
  let send =
    { Event.id = { proc = 0; seq = 1 }; lt = secs 10;
      kind = Event.Send { msg = 1; dst = 1 } }
  in
  let recv =
    { Event.id = { proc = 1; seq = 1 }; lt = secs 20;
      kind = Event.Recv { msg = 1; src = 0; send = send.id } }
  in
  (match Edges.msg_edges s ~send ~recv with
  | [ f; b ] ->
    Alcotest.(check bool) "forward 9" true Q.(weight s f = q 9);
    Alcotest.(check bool) "backward -5" true Q.(weight s b = q (-5));
    Alcotest.(check bool) "directions" true
      (Event.id_equal f.Edges.src send.id && Event.id_equal b.Edges.src recv.id)
  | _ -> Alcotest.fail "expected two message edges");
  (* a weight past ±(2^61 − 1) is refused, never wrapped *)
  let far = { recv with lt = System_spec.max_cell } in
  Alcotest.check_raises "out of range"
    (Invalid_argument
       "Edges.msg_edges: a weight leaves the lattice's ±(2^61 − 1)/D range")
    (fun () -> ignore (Edges.msg_edges s ~send ~recv:far))

let test_edge_weights_async_link () =
  (* an asynchronous link has no backward (upper-bound) edge *)
  let s =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 50)
      ~transit:Transit.asynchronous ~links:[ (0, 1) ]
  in
  let send =
    { Event.id = { proc = 0; seq = 1 }; lt = secs 10;
      kind = Event.Send { msg = 1; dst = 1 } }
  in
  let recv =
    { Event.id = { proc = 1; seq = 1 }; lt = secs 20;
      kind = Event.Recv { msg = 1; src = 0; send = send.id } }
  in
  match Edges.msg_edges s ~send ~recv with
  | [ f ] ->
    (* vd − 0 = 10 *)
    Alcotest.(check bool) "forward only" true Q.(weight s f = q 10)
  | l -> Alcotest.fail (Printf.sprintf "expected one edge, got %d" (List.length l))

let test_edges_of_view () =
  let s = star_spec 2 in
  let v = View.create ~n_procs:2 in
  View.add v { Event.id = { proc = 0; seq = 0 }; lt = 0; kind = Event.Init };
  View.add v
    { Event.id = { proc = 0; seq = 1 }; lt = secs 10;
      kind = Event.Send { msg = 1; dst = 1 } };
  View.add v { Event.id = { proc = 1; seq = 0 }; lt = 0; kind = Event.Init };
  View.add v
    { Event.id = { proc = 1; seq = 1 }; lt = secs 20;
      kind = Event.Recv { msg = 1; src = 0; send = { proc = 0; seq = 1 } } };
  let edges = Sync_graph.of_view s v in
  (* p0 timeline: 2, p1 timeline: 2, message: 2 *)
  Alcotest.(check int) "edge count" 6 (List.length edges)

(* Property: for feasible elapses, proc-edge weights are non-negative and
   the two message-edge weights sum to hi − lo (the link's uncertainty). *)
let prop_edge_weight_identities =
  QCheck.Test.make ~name:"edges: weight identities" ~count:300
    QCheck.(
      quad (int_range 0 1000) (int_range 1 500) (int_range 0 100)
        (int_range 0 400))
    (fun (elapse, ppm, lo, extra) ->
      let s =
        System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm ppm)
          ~transit:(Transit.of_q (q lo) (q (lo + extra)))
          ~links:[ (0, 1) ]
      in
      let prev = { Event.id = { proc = 1; seq = 0 }; lt = 0; kind = Event.Init } in
      let next =
        { Event.id = { proc = 1; seq = 1 }; lt = secs elapse;
          kind = Event.Internal }
      in
      let proc_ok =
        List.for_all (fun e -> e.Edges.w >= 0) (Edges.proc_edges s ~prev ~next)
      in
      let send =
        { Event.id = { proc = 0; seq = 1 }; lt = secs 3;
          kind = Event.Send { msg = 1; dst = 1 } }
      in
      let recv =
        { Event.id = { proc = 1; seq = 1 }; lt = secs (3 + lo);
          kind = Event.Recv { msg = 1; src = 0; send = send.id } }
      in
      let msg_ok =
        match Edges.msg_edges s ~send ~recv with
        | [ f; b ] -> f.Edges.w + b.Edges.w = extra * System_spec.lattice s
        | _ -> false
      in
      proc_ok && msg_ok)

(* Property: the int edges AGDP runs on are exactly D times the
   reference's exact weights (Sync_graph), over random drift bounds,
   transit bounds with lo = hi, hi = ∞ and, once charged, lo < 0, and
   random tick pairs. *)
let prop_edges_match_exact =
  let open QCheck in
  let spec_gen =
    Gen.(
      let* down = int_range 0 100 and* up = int_range 0 100 in
      let* lo_us = int_range 0 5000 in
      let* hi =
        frequency
          [
            (2, map (fun e -> Some e) (int_range 1 5000));
            (1, return (Some 0));
            (1, return None);
          ]
      in
      let* charged = bool in
      return (down, up, lo_us, hi, charged))
  in
  let ticks = Gen.int_range 0 2_000_000_000 in
  Test.make ~name:"edges: D times the exact weights" ~count:300
    (make
       ~print:(fun ((down, up, lo, hi, ch), (a, b, c, d)) ->
         Printf.sprintf "drift -%d/+%d x10 ppm, lo %d/7 us, hi %s, charged %b; %d %d %d %d"
           down up lo
           (match hi with Some e -> Printf.sprintf "lo+%d us" e | None -> "inf")
           ch a b c d)
       Gen.(pair spec_gen (quad ticks ticks ticks ticks)))
    (fun ((down, up, lo_us, hi, charged), (t0, t1, ts, tr)) ->
      let us n = Q.of_ints n 1_000_000 in
      (* drift in steps of 10 ppm: D stays under 2^40 with the 7 below *)
      let drift =
        Drift.make
          ~rmin:(Q.sub Q.one (us (10 * down)))
          ~rmax:(Q.add Q.one (us (10 * up)))
      in
      let lo = Q.div_int (us lo_us) 7 in
      let transit =
        Transit.make ~lo
          ~hi:(match hi with Some e -> Ext.Fin (Q.add lo (us e)) | None -> Ext.Inf)
      in
      let s =
        System_spec.uniform ~n:2 ~source:0 ~drift ~transit ~links:[ (0, 1) ]
      in
      let s = if charged then System_spec.charge s else s in
      let d = System_spec.lattice s in
      let ev seq lt kind = { Event.id = { proc = 1; seq }; lt; kind } in
      let prev = ev 0 (min t0 t1) Event.Init
      and next = ev 1 (max t0 t1) Event.Internal in
      let send =
        { Event.id = { proc = 0; seq = 1 }; lt = ts;
          kind = Event.Send { msg = 1; dst = 1 } }
      in
      let recv = ev 1 tr (Event.Recv { msg = 1; src = 0; send = send.id }) in
      let agree (ints : Edges.edge list) (exact : Sync_graph.edge list) =
        List.length ints = List.length exact
        && List.for_all2
             (fun (i : Edges.edge) (e : Sync_graph.edge) ->
               Event.id_equal i.src e.src && Event.id_equal i.dst e.dst
               && Q.equal (Q.of_int i.w) (Q.mul_int e.w d))
             ints exact
      in
      agree (Edges.proc_edges s ~prev ~next) (Sync_graph.proc_edges s ~prev ~next)
      && agree (Edges.msg_edges s ~send ~recv) (Sync_graph.msg_edges s ~send ~recv))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "spec"
    [
      ("drift", [ Alcotest.test_case "bounds" `Quick test_drift ]);
      ("transit", [ Alcotest.test_case "bounds" `Quick test_transit ]);
      ( "system",
        [
          Alcotest.test_case "star topology" `Quick test_system_spec;
          Alcotest.test_case "validation" `Quick test_system_spec_validation;
          Alcotest.test_case "lattice denominator" `Quick test_lattice;
          Alcotest.test_case "charge" `Quick test_charge;
        ] );
      ( "edges",
        [
          Alcotest.test_case "weights (Definition 2.1)" `Quick test_edge_weights;
          Alcotest.test_case "asynchronous link" `Quick
            test_edge_weights_async_link;
          Alcotest.test_case "whole view" `Quick test_edges_of_view;
        ] );
      qsuite "props" [ prop_edge_weight_identities; prop_edges_match_exact ];
    ]
