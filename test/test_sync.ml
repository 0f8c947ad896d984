(* Tests for the reference optimal algorithm (Theorem 2.1) and the
   achievability witnesses.  Bounds are checked against hand-derived
   values on small executions. *)

let q = Q.of_int
let qd = Q.of_decimal_string
let interval = Alcotest.testable Interval.pp Interval.equal

let spec2 =
  (* p0 = source; p1 drifts 100 ppm; link transit in [1, 5] *)
  System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1) ]

(* [lt] in seconds, a whole tick in every case below *)
let add view proc seq lt kind =
  View.add view { Event.id = { proc; seq }; lt = Clock.floor_ticks lt; kind }

(* p0: init(0) send m1(10); p1: init(0) recv m1(20). *)
let one_message_view () =
  let v = View.create ~n_procs:2 in
  add v 0 0 (q 0) Event.Init;
  add v 0 1 (q 10) (Event.Send { msg = 1; dst = 1 });
  add v 1 0 (q 0) Event.Init;
  add v 1 1 (q 20) (Event.Recv { msg = 1; src = 0; send = { proc = 0; seq = 1 } });
  v

let test_one_message_bounds () =
  let v = one_message_view () in
  (* d(recv -> sp) = hi − vd = 5 − 10 = −5 ⇒ ext_U = 20 − 5 = 15
     d(sp -> recv) = vd − lo = 10 − 1 = 9 ⇒ ext_L = 20 − 9 = 11 *)
  let i = Reference.estimate spec2 v ~at:{ proc = 1; seq = 1 } in
  Alcotest.(check interval) "recv bounds" (Interval.of_q (q 11) (q 15)) i;
  (* at the source, bounds are exact *)
  let i0 = Reference.estimate spec2 v ~at:{ proc = 0; seq = 1 } in
  Alcotest.(check interval) "source knows itself" (Interval.point (q 10)) i0

let test_drift_widens_bounds () =
  let v = one_message_view () in
  (* an internal event at p1 at lt 120: 100 local units after the recv;
     drift adds (1 ± 1/10000)·100 of slack on each side *)
  add v 1 2 (q 120) Event.Internal;
  let i = Reference.estimate spec2 v ~at:{ proc = 1; seq = 2 } in
  Alcotest.(check interval) "widened"
    (Interval.of_q (qd "110.99") (qd "115.01"))
    i

let test_no_source_info () =
  let v = View.create ~n_procs:2 in
  add v 1 0 (q 0) Event.Init;
  let i = Reference.estimate spec2 v ~at:{ proc = 1; seq = 0 } in
  Alcotest.(check interval) "no info at all" Interval.full i;
  (* source exists but no path to p1 yet *)
  add v 0 0 (q 0) Event.Init;
  let i2 = Reference.estimate spec2 v ~at:{ proc = 1; seq = 0 } in
  Alcotest.(check interval) "still unbounded" Interval.full i2

(* The two-message scenario, hand-computed:
   p0 (source): init(0), send m1(10), recv m2(17)
   p1 (100ppm): init(0), recv m1(8), send m2(10)
   transit [1,5] both ways.
   At p1#2 (send m2, lt 10): ext_U = 16, ext_L = 12.9998. *)
let round_trip_view () =
  let v = View.create ~n_procs:2 in
  add v 0 0 (q 0) Event.Init;
  add v 0 1 (q 10) (Event.Send { msg = 1; dst = 1 });
  add v 1 0 (q 0) Event.Init;
  add v 1 1 (q 8) (Event.Recv { msg = 1; src = 0; send = { proc = 0; seq = 1 } });
  add v 1 2 (q 10) (Event.Send { msg = 2; dst = 0 });
  add v 0 2 (q 17) (Event.Recv { msg = 2; src = 1; send = { proc = 1; seq = 2 } });
  v

let test_round_trip_bounds () =
  let v = round_trip_view () in
  let i = Reference.estimate spec2 v ~at:{ proc = 1; seq = 2 } in
  Alcotest.(check interval) "round trip"
    (Interval.of_q (qd "12.9998") (q 16))
    i

let test_all_pairs_consistency () =
  let v = round_trip_view () in
  let d = Reference.all_pairs spec2 v in
  let sp = { Event.proc = 0; seq = 0 } in
  let at = { Event.proc = 1; seq = 2 } in
  (* the pairwise oracle agrees with the estimate *)
  (match d at sp, d sp at with
  | Ext.Fin to_sp, Ext.Fin from_sp ->
    Alcotest.(check bool) "ext_U" true Q.(Q.add (q 10) to_sp = q 16);
    Alcotest.(check bool) "ext_L" true Q.(Q.sub (q 10) from_sp = qd "12.9998")
  | _ -> Alcotest.fail "expected finite distances");
  (* all source points at mutual distance 0 *)
  let s0 = { Event.proc = 0; seq = 0 } and s1 = { Event.proc = 0; seq = 1 } in
  Alcotest.(check bool) "source timeline collapses" true
    (Ext.equal (d s0 s1) Ext.zero && Ext.equal (d s1 s0) Ext.zero)

let test_witness_feasibility () =
  let v = round_trip_view () in
  (* the "true" execution this view was drawn from: p1 runs exactly at
     real-time rate, offset by 5 *)
  let truth (id : Event.id) =
    match id.proc, id.seq with
    | 0, 0 -> q 0
    | 0, 1 -> q 10
    | 0, 2 -> q 17
    | 1, 0 -> q 5
    | 1, 1 -> q 13
    | 1, 2 -> q 15
    | _ -> Alcotest.fail "unknown event"
  in
  Alcotest.(check bool) "true execution is feasible" true
    (Witness.feasible spec2 v truth);
  Alcotest.(check int) "no violations" 0
    (List.length (Witness.violations spec2 v truth));
  (* breaking a transit bound is detected *)
  let bad id = if id = { Event.proc = 0; seq = 2 } then q 100 else truth id in
  Alcotest.(check bool) "bad execution rejected" false
    (Witness.feasible spec2 v bad)

let test_witness_extremal () =
  let v = round_trip_view () in
  let sp = { Event.proc = 0; seq = 0 } in
  let latest = Witness.extremal spec2 v ~anchor:sp `Latest in
  let earliest = Witness.extremal spec2 v ~anchor:sp `Earliest in
  (* both witnesses are feasible executions with this very view ... *)
  Alcotest.(check bool) "latest feasible" true (Witness.feasible spec2 v latest);
  Alcotest.(check bool) "earliest feasible" true
    (Witness.feasible spec2 v earliest);
  (* ... and they attain the optimal bounds at p1#2: in the `Latest
     execution, RT(p1#2) − RT(sp) = virt_del + d(p,sp) = 10 + 6 = 16, the
     upper end; in `Earliest, virt_del − d(sp,p) = 10 − (−2.9998). *)
  let at = { Event.proc = 1; seq = 2 } in
  Alcotest.(check bool) "upper end attained" true
    Q.(Q.sub (latest at) (latest sp) = q 16);
  Alcotest.(check bool) "lower end attained" true
    Q.(Q.sub (earliest at) (earliest sp) = qd "12.9998");
  (* interpretation: with RT(sp) = LT(sp) = 0, the source time at p1#2 is
     16 in one execution and 12.9998 in the other — exactly the interval
     of test_round_trip_bounds, so no tighter output can be correct. *)
  Alcotest.(check bool) "witnesses anchor at sp" true
    (Q.is_zero (latest sp) && Q.is_zero (earliest sp))

let test_inconsistent_view_detected () =
  (* transit [1,5] but the receive's local time makes the round trip
     impossible: total elapsed at source less than two transit lower
     bounds.  p0 sends at 10 and receives the reply at 10.5 — but p1's
     clock shows 8 -> 10 between its recv and send, which needs at least
     2·(1/1.0001)... in fact min round trip is 1 + 0.9999·2·... > 0.5. *)
  let v = View.create ~n_procs:2 in
  add v 0 0 (q 0) Event.Init;
  add v 0 1 (q 10) (Event.Send { msg = 1; dst = 1 });
  add v 1 0 (q 0) Event.Init;
  add v 1 1 (q 8) (Event.Recv { msg = 1; src = 0; send = { proc = 0; seq = 1 } });
  add v 1 2 (q 10) (Event.Send { msg = 2; dst = 0 });
  add v 0 2 (qd "10.5")
    (Event.Recv { msg = 2; src = 1; send = { proc = 1; seq = 2 } });
  Alcotest.check_raises "negative cycle" Bellman_ford.Negative_cycle (fun () ->
      ignore (Reference.estimate spec2 v ~at:{ proc = 1; seq = 2 }))

let test_estimates_at_proc () =
  let v = round_trip_view () in
  let ests = Reference.estimates_at_proc spec2 v 1 in
  Alcotest.(check int) "three events" 3 (List.length ests);
  (* widths shrink (or stay) as information arrives *)
  let widths =
    List.map
      (fun (_, i) ->
        match Interval.width i with Ext.Fin w -> Q.to_float w | Ext.Inf -> infinity)
      ests
  in
  (match widths with
  | [ w0; w1; w2 ] ->
    Alcotest.(check bool) "monotone improvement" true (w0 >= w1 && w1 >= w2 -. 1e-9)
  | _ -> Alcotest.fail "unexpected");
  ()

(* Property: on random feasible executions, the reference interval always
   contains the true source-clock reading, and the extremal witnesses are
   feasible and attain the interval ends. *)
let prop_containment_random =
  QCheck.Test.make ~name:"reference: containment on random 2-proc executions"
    ~count:150
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 1 10) (pair (int_range 0 4) (int_range 1 6))))
    (fun (offset, steps) ->
      (* build a true execution: p1 perfect-rate but offset; message delays
         alternate within [1,5] *)
      let v = View.create ~n_procs:2 in
      add v 0 0 (q 0) Event.Init;
      (* p1's clock shows RT − offset; its init happens at RT = offset *)
      add v 1 0 (q 0) Event.Init;
      let lt1 rt = Q.sub rt (q offset) in
      let rt = ref (q (offset + 1)) in
      let seqs = [| 1; 1 |] in
      let msg = ref 0 in
      let truth = Hashtbl.create 16 in
      Hashtbl.replace truth (0, 0) (q 0);
      Hashtbl.replace truth (1, 0) (q offset);
      List.iter
        (fun (gap, delay) ->
          rt := Q.add !rt (q (1 + gap));
          let delay = q (min 5 (max 1 delay)) in
          incr msg;
          (* source sends, p1 receives *)
          let send_seq = seqs.(0) in
          add v 0 send_seq !rt (Event.Send { msg = !msg; dst = 1 });
          Hashtbl.replace truth (0, send_seq) !rt;
          seqs.(0) <- send_seq + 1;
          let arrive = Q.add !rt delay in
          let recv_seq = seqs.(1) in
          add v 1 recv_seq (lt1 arrive)
            (Event.Recv { msg = !msg; src = 0; send = { proc = 0; seq = send_seq } });
          Hashtbl.replace truth (1, recv_seq) arrive;
          seqs.(1) <- recv_seq + 1;
          rt := arrive)
        steps;
      let last_p1 = { Event.proc = 1; seq = seqs.(1) - 1 } in
      let i = Reference.estimate spec2 v ~at:last_p1 in
      let true_rt = Hashtbl.find truth (1, seqs.(1) - 1) in
      let contained = Interval.mem true_rt i in
      let witness_ok =
        match Reference.source_point spec2 v with
        | None -> false
        | Some sp ->
          let latest = Witness.extremal spec2 v ~anchor:sp `Latest in
          let earliest = Witness.extremal spec2 v ~anchor:sp `Earliest in
          Witness.feasible spec2 v latest && Witness.feasible spec2 v earliest
      in
      contained && witness_ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sync"
    [
      ( "reference",
        [
          Alcotest.test_case "one message (hand-computed)" `Quick
            test_one_message_bounds;
          Alcotest.test_case "drift widens bounds" `Quick
            test_drift_widens_bounds;
          Alcotest.test_case "no source information" `Quick test_no_source_info;
          Alcotest.test_case "round trip (hand-computed)" `Quick
            test_round_trip_bounds;
          Alcotest.test_case "all-pairs oracle" `Quick test_all_pairs_consistency;
          Alcotest.test_case "per-processor estimates" `Quick
            test_estimates_at_proc;
          Alcotest.test_case "inconsistent view detected" `Quick
            test_inconsistent_view_detected;
        ] );
      ( "witness",
        [
          Alcotest.test_case "feasibility checking" `Quick
            test_witness_feasibility;
          Alcotest.test_case "extremal executions (tightness)" `Quick
            test_witness_extremal;
        ] );
      qsuite "props" [ prop_containment_random ];
    ]
