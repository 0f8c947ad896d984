(* Integration tests for the optimal efficient CSA (Section 3): its output
   must equal the reference optimal algorithm's output on the same local
   view, at every point, while keeping only the garbage-collected state.
   Also: soundness (the hidden true time is always inside the interval),
   liveness accounting against Definition 3.1, and loss handling. *)

let q = Q.of_int
let qd = Q.of_decimal_string

(* a reading of [n] seconds, in ticks *)
let secs n = n * System_spec.ticks_per_second
let interval = Alcotest.testable Interval.pp Interval.equal

let spec2 =
  System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1) ]

(* A node under test: the efficient algorithm plus its view-mirroring
   oracle, driven in lock step. *)
type node = { csa : Csa.t; mirror : Mirror.t }

let mk_node ?lossy spec ~me ~lt0 =
  { csa = Csa.create ?lossy spec ~me ~lt0; mirror = Mirror.create spec ~me ~lt0 }

let check_against_reference ?(msg = "optimal = reference") node =
  let expected =
    Reference.estimate
      (Csa.spec node.csa)
      (Mirror.view node.mirror)
      ~at:(Mirror.last_id node.mirror)
  in
  Alcotest.(check interval) msg expected (Csa.estimate node.csa)

let do_send node ~dst ~msg ~lt =
  let payload = Csa.send node.csa ~dst ~msg ~lt in
  Mirror.send node.mirror ~payload;
  payload

let do_recv node ~msg ~lt payload =
  Csa.receive node.csa ~msg ~lt payload;
  Mirror.receive node.mirror ~msg ~lt ~payload

let test_round_trip_matches_reference () =
  (* the hand-computed execution of test_sync, now through the real
     protocol stack *)
  let a = mk_node spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node spec2 ~me:1 ~lt0:(secs 0) in
  Alcotest.(check interval) "source is exact before traffic"
    (Interval.point (q 0)) (Csa.estimate a.csa);
  Alcotest.(check interval) "b knows nothing" Interval.full (Csa.estimate b.csa);
  let p1 = do_send a ~dst:1 ~msg:1 ~lt:(secs 10) in
  check_against_reference ~msg:"a after send" a;
  do_recv b ~msg:1 ~lt:(secs 8) p1;
  check_against_reference ~msg:"b after first recv" b;
  let p2 = do_send b ~dst:0 ~msg:2 ~lt:(secs 10) in
  check_against_reference ~msg:"b after reply" b;
  (* hand-computed from b's own view (which cannot contain the reply's
     receipt): ext_L via m1's forward edge = 10 − (−2.9998) lower path,
     ext_U via m1's backward edge = 10 + 7.0002 *)
  Alcotest.(check interval) "hand-computed bounds at b"
    (Interval.of_q (qd "12.9998") (qd "17.0002"))
    (Csa.estimate b.csa);
  do_recv a ~msg:2 ~lt:(secs 17) p2;
  check_against_reference ~msg:"a after round trip" a;
  Alcotest.(check interval) "source still exact" (Interval.point (q 17))
    (Csa.estimate a.csa)

let test_estimate_at_widens () =
  let a = mk_node spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node spec2 ~me:1 ~lt0:(secs 0) in
  let p1 = do_send a ~dst:1 ~msg:1 ~lt:(secs 10) in
  do_recv b ~msg:1 ~lt:(secs 20) p1;
  Alcotest.(check interval) "at the recv" (Interval.of_q (q 11) (q 15))
    (Csa.estimate b.csa);
  (* 100 local units later: drift slack 0.01 on each side — and it must
     agree with the reference algorithm run on a view extended by an
     internal event at that local time *)
  let i = Csa.estimate_at b.csa ~lt:(secs 120) in
  Alcotest.(check interval) "widened by drift"
    (Interval.of_q (qd "110.99") (qd "115.01"))
    i;
  Alcotest.check_raises "query in the past"
    (Invalid_argument "Csa.estimate_at: time in the past") (fun () ->
      ignore (Csa.estimate_at b.csa ~lt:(secs 19)));
  (* an explicit internal event gives the same bounds *)
  Csa.local_event b.csa ~lt:(secs 120);
  Mirror.local_event b.mirror ~lt:(secs 120);
  check_against_reference ~msg:"internal event = virtual query" b;
  Alcotest.(check interval) "same bounds"
    (Interval.of_q (qd "110.99") (qd "115.01"))
    (Csa.estimate b.csa)

let line3 =
  (* 0 (source) — 1 — 2, so node 2 only hears about the source
     transitively *)
  System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1); (1, 2) ]

let test_transitive_information_flow () =
  let n0 = mk_node line3 ~me:0 ~lt0:(secs 0) in
  let n1 = mk_node line3 ~me:1 ~lt0:(secs 0) in
  let n2 = mk_node line3 ~me:2 ~lt0:(secs 0) in
  let p1 = do_send n0 ~dst:1 ~msg:1 ~lt:(secs 10) in
  do_recv n1 ~msg:1 ~lt:(secs 13) p1;
  (* n2 still knows nothing *)
  Alcotest.(check interval) "n2 unbounded" Interval.full (Csa.estimate n2.csa);
  let p2 = do_send n1 ~dst:2 ~msg:2 ~lt:(secs 14) in
  do_recv n2 ~msg:2 ~lt:(secs 20) p2;
  check_against_reference ~msg:"n2 via relay" n2;
  (* n2's interval: source info degraded by two hops of delay uncertainty *)
  (match Interval.width (Csa.estimate n2.csa) with
  | Ext.Fin w ->
    (* two [1,5] hops and one drifting local segment: width a bit over 8 *)
    Alcotest.(check bool) "width reflects two hops" true
      Q.(w >= q 8 && w <= q 9)
  | Ext.Inf -> Alcotest.fail "expected finite bounds");
  (* and the relay's own estimate is tighter than the leaf's *)
  let w1 = Interval.width (Csa.estimate_at n1.csa ~lt:(secs 20)) in
  let w2 = Interval.width (Csa.estimate n2.csa) in
  Alcotest.(check bool) "relay tighter than leaf" true (Ext.le w1 w2)

let test_liveness_accounting () =
  let n0 = mk_node line3 ~me:0 ~lt0:(secs 0) in
  let n1 = mk_node line3 ~me:1 ~lt0:(secs 0) in
  let check_live node =
    let expected =
      View.live_points (Mirror.view node.mirror)
      |> List.map (fun (e : Event.t) -> e.id)
      |> List.sort Event.id_compare
    in
    let actual = List.sort Event.id_compare (Csa.live_event_ids node.csa) in
    Alcotest.(check bool)
      (Printf.sprintf "live set of p%d matches Definition 3.1" (Csa.me node.csa))
      true
      (List.length expected = List.length actual
      && List.for_all2 Event.id_equal expected actual)
  in
  check_live n0;
  let p1 = do_send n0 ~dst:1 ~msg:1 ~lt:(secs 10) in
  check_live n0;
  Alcotest.(check int) "n0: send + init of others unknown" 1 (Csa.live_count n0.csa);
  do_recv n1 ~msg:1 ~lt:(secs 13) p1;
  check_live n1;
  let p2 = do_send n1 ~dst:0 ~msg:2 ~lt:(secs 14) in
  check_live n1;
  do_recv n0 ~msg:2 ~lt:(secs 18) p2;
  check_live n0;
  (* after the round trip n0's view: its last event and n1's last event are
     live; delivered sends are dead *)
  Alcotest.(check int) "n0 live count" 2 (Csa.live_count n0.csa)

let test_history_stays_bounded_under_long_run () =
  let a = mk_node spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node spec2 ~me:1 ~lt0:(secs 0) in
  for i = 1 to 50 do
    let t0 = 20 * i in
    let p1 = do_send a ~dst:1 ~msg:(2 * i) ~lt:(secs t0) in
    do_recv b ~msg:(2 * i) ~lt:(secs (t0 + 3)) p1;
    let p2 = do_send b ~dst:0 ~msg:((2 * i) + 1) ~lt:(secs (t0 + 4)) in
    do_recv a ~msg:((2 * i) + 1) ~lt:(secs (t0 + 8)) p2
  done;
  check_against_reference ~msg:"still optimal after 100 messages" a;
  check_against_reference ~msg:"still optimal after 100 messages" b;
  (* the whole point of the paper: state stays bounded while the mirror
     (full view) grows linearly *)
  Alcotest.(check bool) "mirror grew" true (View.size (Mirror.view a.mirror) > 150);
  Alcotest.(check bool) "peak live count small" true (Csa.peak_live_count a.csa <= 6);
  Alcotest.(check bool) "peak history small" true
    (Csa.peak_history_size a.csa <= 12);
  Alcotest.(check int) "events processed = view size"
    (View.size (Mirror.view a.mirror))
    (Csa.events_processed a.csa)

let test_agdp_matches_reference_all_pairs () =
  let a = mk_node line3 ~me:0 ~lt0:(secs 0) in
  let b = mk_node line3 ~me:1 ~lt0:(secs 0) in
  let c = mk_node line3 ~me:2 ~lt0:(secs 0) in
  let p1 = do_send a ~dst:1 ~msg:1 ~lt:(secs 10) in
  do_recv b ~msg:1 ~lt:(secs 13) p1;
  let p2 = do_send b ~dst:2 ~msg:2 ~lt:(secs 15) in
  do_recv c ~msg:2 ~lt:(secs 19) p2;
  let p3 = do_send c ~dst:1 ~msg:3 ~lt:(secs 25) in
  do_recv b ~msg:3 ~lt:(secs 30) p3;
  (* every pair of live points in b's AGDP graph has exactly the full
     sync-graph distance (Lemma 3.4) *)
  let oracle = Reference.all_pairs line3 (Mirror.view b.mirror) in
  let live = Csa.live_event_ids b.csa in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let got = Csa.dist_between b.csa x y in
          let want = oracle x y in
          if not (Ext.equal got want) then
            Alcotest.failf "d(%s,%s): got %s want %s"
              (Format.asprintf "%a" Event.pp_id x)
              (Format.asprintf "%a" Event.pp_id y)
              (Ext.to_string got) (Ext.to_string want))
        live)
    live

let test_lossy_mode () =
  let a = mk_node ~lossy:true spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node ~lossy:true spec2 ~me:1 ~lt0:(secs 0) in
  (* m1 is lost in transit *)
  let _p1 = Csa.send a.csa ~dst:1 ~msg:1 ~lt:(secs 10) in
  Csa.on_msg_lost a.csa ~msg:1;
  Csa.on_msg_lost b.csa ~msg:1;
  (* the lost send is un-livened once superseded *)
  let p2 = Csa.send a.csa ~dst:1 ~msg:2 ~lt:(secs 12) in
  Alcotest.(check int) "lost send is dead at the sender" 1
    (Csa.live_count a.csa);
  (* retransmission carries everything *)
  Alcotest.(check int) "payload re-reports lost events" 3 (Payload.size p2);
  Csa.receive b.csa ~msg:2 ~lt:(secs 15) p2;
  Csa.on_msg_delivered a.csa ~msg:2;
  (* b now has full information: same bounds as a loss-free run of m2 *)
  (match Interval.width (Csa.estimate b.csa) with
  | Ext.Fin w -> Alcotest.(check bool) "bounded estimate" true Q.(w = q 4)
  | Ext.Inf -> Alcotest.fail "expected finite bounds");
  (* b learned of the lost send via the payload, but the loss flag keeps
     it out of b's live set: only b's own last event and a's last event *)
  Alcotest.(check int) "no zombie live points at b" 2 (Csa.live_count b.csa)

let test_naive_equivalence () =
  (* the Section 2.3 general algorithm and the efficient one give identical
     bounds on a shared execution; only the costs differ *)
  let a = mk_node spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node spec2 ~me:1 ~lt0:(secs 0) in
  let na = Naive.create spec2 ~me:0 ~lt0:(secs 0) in
  let nb = Naive.create spec2 ~me:1 ~lt0:(secs 0) in
  for i = 1 to 10 do
    let t0 = 20 * i in
    let m1 = do_send a ~dst:1 ~msg:(2 * i) ~lt:(secs t0) in
    let m1n = Naive.send na ~dst:1 ~msg:(2 * i) ~lt:(secs t0) in
    do_recv b ~msg:(2 * i) ~lt:(secs (t0 + 3)) m1;
    Naive.receive nb ~msg:(2 * i) ~lt:(secs (t0 + 3)) m1n;
    let m2 = do_send b ~dst:0 ~msg:((2 * i) + 1) ~lt:(secs (t0 + 4)) in
    let m2n = Naive.send nb ~dst:0 ~msg:((2 * i) + 1) ~lt:(secs (t0 + 4)) in
    do_recv a ~msg:((2 * i) + 1) ~lt:(secs (t0 + 8)) m2;
    Naive.receive na ~msg:((2 * i) + 1) ~lt:(secs (t0 + 8)) m2n;
    Alcotest.(check bool)
      (Printf.sprintf "identical bounds at round %d" i)
      true
      (Interval.equal (Csa.estimate b.csa) (Naive.estimate nb)
      && Interval.equal (Csa.estimate a.csa) (Naive.estimate na))
  done;
  (* the costs tell the paper's story *)
  Alcotest.(check bool) "naive state grows" true (Naive.state_size nb > 35);
  Alcotest.(check bool) "naive messages grow" true
    (Naive.last_message_size nb > 20);
  Alcotest.(check bool) "efficient state bounded" true
    (Csa.live_count b.csa + Csa.history_size b.csa <= 10)

let test_peer_clock_bounds () =
  let a = mk_node spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node spec2 ~me:1 ~lt0:(secs 0) in
  (* nothing known yet *)
  Alcotest.(check bool) "unknown peer" true
    (Interval.equal (Csa.peer_clock_bounds a.csa 1) Interval.full);
  Alcotest.(check bool) "own clock is exact" true
    (Interval.equal (Csa.peer_clock_bounds a.csa 0) (Interval.point (q 0)));
  let m1 = do_send a ~dst:1 ~msg:1 ~lt:(secs 10) in
  do_recv b ~msg:1 ~lt:(secs 8) m1;
  (* at b's recv (its clock: 8), a's clock q reading: Δ = RT(recv) − RT(send
     event of a) ∈ [1, 5] (transit bounds) and a is the source (rate 1), so
     a's clock now shows 10 + Δ ∈ [11, 15] *)
  Alcotest.(check bool) "peer bound after one message" true
    (Interval.equal
       (Csa.peer_clock_bounds b.csa 0)
       (Interval.of_q (q 11) (q 15)));
  (* and the hidden truth is inside: in the simulated hand execution the
     message took 3 units, so a's clock shows 13 *)
  Alcotest.(check bool) "contains truth" true
    (Interval.mem (q 13) (Csa.peer_clock_bounds b.csa 0))

let test_snapshot_restore () =
  (* snapshot mid-execution, restore, and drive both instances forward
     with identical inputs: they must stay indistinguishable *)
  let a = mk_node spec2 ~me:0 ~lt0:(secs 0) in
  let b = mk_node spec2 ~me:1 ~lt0:(secs 0) in
  let m1 = do_send a ~dst:1 ~msg:1 ~lt:(secs 10) in
  do_recv b ~msg:1 ~lt:(secs 8) m1;
  let _m2 = Csa.send b.csa ~dst:0 ~msg:2 ~lt:(secs 9) in
  (* b now has a pending send (msg 2 undelivered) — nontrivial state *)
  let blob = Csa.snapshot b.csa in
  let b' = Csa.restore spec2 blob in
  Alcotest.(check bool) "same estimate" true
    (Interval.equal (Csa.estimate b.csa) (Csa.estimate b'));
  Alcotest.(check int) "same live count" (Csa.live_count b.csa)
    (Csa.live_count b');
  Alcotest.(check int) "same history size" (Csa.history_size b.csa)
    (Csa.history_size b');
  Alcotest.(check int) "same events processed" (Csa.events_processed b.csa)
    (Csa.events_processed b');
  Alcotest.(check bool) "same last lt" true
    (Csa.last_lt b.csa = Csa.last_lt b');
  (* continue both with the same traffic *)
  let m3 = do_send a ~dst:1 ~msg:3 ~lt:(secs 30) in
  Csa.receive b.csa ~msg:3 ~lt:(secs 26) m3;
  Csa.receive b' ~msg:3 ~lt:(secs 26) m3;
  Alcotest.(check bool) "estimates agree after more traffic" true
    (Interval.equal (Csa.estimate b.csa) (Csa.estimate b'));
  let p1 = Csa.send b.csa ~dst:0 ~msg:4 ~lt:(secs 27) in
  let p2 = Csa.send b' ~dst:0 ~msg:4 ~lt:(secs 27) in
  Alcotest.(check int) "identical payloads" (Payload.size p1) (Payload.size p2);
  Alcotest.(check bool) "identical wire encoding" true
    (Codec.encode p1 = Codec.encode p2);
  (* malformed snapshots are rejected *)
  (match Csa.restore spec2 "garbage" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected restore failure");
  match Csa.restore spec2 (String.sub blob 0 (String.length blob - 1)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected restore failure on truncation"

(* A fresh node's AGDP holds its init event alone (key = its id, cell 0,
   no relaxation yet, peak 1), and that section closes the blob: D, the
   key count, the keys, the cells (0 = no path, else zigzag (d·D) + 1),
   relaxations, peak.  Rewriting that tail gives hand-built version-3
   blobs, each of which restore must refuse with a [Failure]. *)
let test_snapshot_refusals () =
  let a = Csa.create spec2 ~me:1 ~lt0:(secs 0) in
  let blob = Csa.snapshot a in
  let d = System_spec.lattice spec2 in
  let enc v = if v = max_int then 0 else Wire.zigzag v + 1 in
  let tail ?(scale = d) ?cells_raw keys cells =
    let buf = Buffer.create 32 in
    let add = Codec.add_varint buf in
    add scale;
    add (List.length keys);
    List.iter add keys;
    (match cells_raw with
    | Some raw -> Buffer.add_string buf raw
    | None -> List.iter (fun v -> add (enc v)) cells);
    add 0;
    add (List.length keys);
    Buffer.contents buf
  in
  let own = tail [ 1 ] [ 0 ] in
  let cut = String.length blob - String.length own in
  Alcotest.(check string) "the blob ends in the AGDP section" own
    (String.sub blob cut (String.length own));
  Alcotest.(check int) "version 3 leads" 3 (Char.code blob.[0]);
  let prefix = String.sub blob 0 cut in
  let refuses name ~msg tl =
    match Csa.restore spec2 (prefix ^ tl) with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure m ->
      let n = String.length msg in
      let rec has i =
        i + n <= String.length m && (String.sub m i n = msg || has (i + 1))
      in
      if not (has 0) then
        Alcotest.failf "%s: refused with %S, wanted %S" name m msg
  in
  refuses "D mismatch" ~msg:"lattice denominator"
    (tail ~scale:(2 * d) [ 1 ] [ 0 ]);
  (* d·D = 2^61 would be written as zigzag + 1 = 2^62 + 1, past every
     int a varint may carry *)
  let varint v =
    let b = Buffer.create 2 in
    Codec.add_varint b v;
    Buffer.contents b
  in
  refuses "out-of-range cell" ~msg:"varint overflow"
    (tail [ 1; 3 ] []
       ~cells_raw:
         (varint (enc 0) ^ "\x81\x80\x80\x80\x80\x80\x80\x80\x40"
         ^ varint (enc 1) ^ varint (enc 0)));
  refuses "negative 2-cycle" ~msg:"negative cycle"
    (tail [ 1; 3 ] [ 0; -3; 1; 0 ]);
  refuses "duplicate key" ~msg:"duplicate key"
    (tail [ 1; 1 ] [ 0; 1; 1; 0 ]);
  (* the same surgery with consistent cells restores *)
  ignore (Csa.restore spec2 (prefix ^ tail [ 1; 3 ] [ 0; 3; max_int; 0 ]));
  (* node 1 holds a frontier for its one neighbor, 0: restored as a node
     that has no neighbors, that frontier is corrupt *)
  (match Csa.restore ~neighbors:[] spec2 blob with
  | _ -> Alcotest.fail "a frontier outside neighbors: accepted"
  | exception Failure m ->
    Alcotest.(check string) "a frontier outside neighbors"
      "Csa.restore: frontier for a non-neighbor" m);
  List.iter
    (fun v ->
      let old = Bytes.of_string blob in
      Bytes.set old 0 (Char.chr v);
      Alcotest.check_raises
        (Printf.sprintf "a version-%d blob" v)
        (Failure "Csa.restore: unsupported snapshot version") (fun () ->
          ignore (Csa.restore spec2 (Bytes.to_string old))))
    [ 1; 2 ]

(* An elapse whose drift weight w·D passes ±(2^61 − 1) is refused by
   [Edges] before it touches any state: the CSA snapshots to the same
   bytes, and goes on from where it was. *)
let test_overflowing_elapse () =
  (* a 1/3 s transit bound puts D at 3·10^10: 3 cells per tick of
     elapse at 100 ppm *)
  let spec =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (Q.of_ints 1 3) (q 5))
      ~links:[ (0, 1) ]
  in
  Alcotest.(check int) "cells per tick" 3 (System_spec.up_cells spec 1);
  let a = Csa.create spec ~me:1 ~lt0:0 in
  ignore (Csa.send a ~dst:0 ~msg:1 ~lt:(secs 1));
  let before = Csa.snapshot a in
  (* a reading inside the cell range whose elapse, times 3, is not *)
  let far = System_spec.max_cell / 2 in
  Alcotest.check_raises "elapse past the cell range"
    (Invalid_argument
       "Edges.proc_edges: a weight leaves the lattice's ±(2^61 − 1)/D range")
    (fun () -> Csa.local_event a ~lt:far);
  Alcotest.(check bool) "snapshot bytes unchanged" true
    (String.equal before (Csa.snapshot a));
  Csa.local_event a ~lt:(secs 2);
  Alcotest.(check int) "still usable" (secs 2) (Csa.last_lt a)

let test_snapshot_lossy_mode () =
  let a = Csa.create ~lossy:true spec2 ~me:0 ~lt0:(secs 0) in
  let _m1 = Csa.send a ~dst:1 ~msg:1 ~lt:(secs 5) in
  (* retransmission record in flight at snapshot time *)
  let a' = Csa.restore spec2 (Csa.snapshot a) in
  Csa.on_msg_lost a ~msg:1;
  Csa.on_msg_lost a' ~msg:1;
  let p = Csa.send a ~dst:1 ~msg:2 ~lt:(secs 6) in
  let p' = Csa.send a' ~dst:1 ~msg:2 ~lt:(secs 6) in
  Alcotest.(check int) "re-report after restore too" (Payload.size p)
    (Payload.size p');
  Alcotest.(check bool) "three events re-reported" true (Payload.size p = 3)

let test_send_validation () =
  let a = mk_node line3 ~me:0 ~lt0:(secs 0) in
  Alcotest.check_raises "no such link"
    (Invalid_argument "Csa.send: no link 0-2") (fun () ->
      ignore (Csa.send a.csa ~dst:2 ~msg:1 ~lt:(secs 1)));
  ignore (Csa.send a.csa ~dst:1 ~msg:1 ~lt:(secs 5));
  Alcotest.check_raises "time regression"
    (Invalid_argument "Csa: local time regression") (fun () ->
      ignore (Csa.send a.csa ~dst:1 ~msg:2 ~lt:(secs 4)))

(* Property: random gossip over a random line/star topology with hidden
   true clocks; at every event the efficient algorithm equals the
   reference and contains the truth. *)
let prop_random_executions =
  QCheck.Test.make ~name:"csa: equals reference + contains truth (random runs)"
    ~count:40
    QCheck.(
      pair bool
        (list_of_size (Gen.int_range 4 25)
           (triple (int_range 0 2) (int_range 0 4) (int_range 1 5))))
    (fun (star, script) ->
      let n = 3 in
      let links = if star then [ (0, 1); (0, 2) ] else [ (0, 1); (1, 2) ] in
      let spec =
        System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 100)
          ~transit:(Transit.of_q (q 1) (q 5))
          ~links
      in
      (* hidden truth: all clocks run at rate 1 (allowed by the drift
         bounds) with offsets; RT(init_p) = 0 for all *)
      let offsets = [| 0; 7; -3 |] in
      let lt_of p rt = Clock.floor_ticks (Q.add rt (q offsets.(p))) in
      let nodes =
        Array.init n (fun me -> mk_node spec ~me ~lt0:(lt_of me (q 0)))
      in
      let rt = ref Q.zero in
      let msg = ref 0 in
      let ok = ref true in
      (* in-flight messages sorted by (delivery time, send order); links
         are FIFO, so per directed link the delivery times are forced
         non-decreasing (still within the [1,5] transit bound) *)
      let inflight = ref [] in
      let last_delivery = Hashtbl.create 8 in
      let schedule (m, dst, at, payload, src) =
        let at =
          match Hashtbl.find_opt last_delivery (src, dst) with
          | Some prev -> Q.max at prev
          | None -> at
        in
        Hashtbl.replace last_delivery (src, dst) at;
        inflight :=
          List.merge
            (fun (m1, _, a, _) (m2, _, b, _) ->
              let c = Q.compare a b in
              if c <> 0 then c else compare m1 m2)
            [ (m, dst, at, payload) ]
            !inflight
      in
      let check node true_rt =
        let est = Csa.estimate node.csa in
        let expected =
          Reference.estimate spec (Mirror.view node.mirror)
            ~at:(Mirror.last_id node.mirror)
        in
        if not (Interval.equal est expected) then ok := false;
        if not (Interval.mem true_rt est) then ok := false
      in
      (* deliver every message due at or before the horizon, in time order *)
      let rec drain horizon =
        match !inflight with
        | (m, dst, at, payload) :: rest when Q.(at <= horizon) ->
          inflight := rest;
          do_recv nodes.(dst) ~msg:m ~lt:(lt_of dst at) payload;
          check nodes.(dst) at;
          drain horizon
        | _ -> ()
      in
      List.iter
        (fun (src, dst_sel, delay) ->
          rt := Q.add !rt (q 3);
          drain !rt;
          let ns = System_spec.neighbors spec src in
          let dst = List.nth ns (dst_sel mod List.length ns) in
          incr msg;
          let payload = do_send nodes.(src) ~dst ~msg:!msg ~lt:(lt_of src !rt) in
          check nodes.(src) !rt;
          schedule (!msg, dst, Q.add !rt (q (min 5 (max 1 delay))), payload, src))
        script;
      (* drain the rest *)
      drain (Q.add !rt (q 10));
      (* estimate_at between events must equal the reference algorithm run
         on the view extended by a virtual internal event at that time *)
      rt := Q.add !rt (q 5);
      Array.iter
        (fun node ->
          let lt = lt_of (Csa.me node.csa) !rt in
          let before = Csa.estimate_at node.csa ~lt in
          Csa.local_event node.csa ~lt;
          Mirror.local_event node.mirror ~lt;
          let expected =
            Reference.estimate spec (Mirror.view node.mirror)
              ~at:(Mirror.last_id node.mirror)
          in
          if not (Interval.equal before expected) then ok := false)
        nodes;
      (* snapshots are canonical: restore-then-snapshot is the identity *)
      Array.iter
        (fun node ->
          let blob = Csa.snapshot node.csa in
          if Csa.snapshot (Csa.restore spec blob) <> blob then ok := false)
        nodes;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "csa"
    [
      ( "optimality",
        [
          Alcotest.test_case "round trip matches reference" `Quick
            test_round_trip_matches_reference;
          Alcotest.test_case "estimate_at widens optimally" `Quick
            test_estimate_at_widens;
          Alcotest.test_case "transitive information flow" `Quick
            test_transitive_information_flow;
          Alcotest.test_case "AGDP = full-graph distances (Lemma 3.4)" `Quick
            test_agdp_matches_reference_all_pairs;
        ] );
      ( "resources",
        [
          Alcotest.test_case "liveness accounting (Definition 3.1)" `Quick
            test_liveness_accounting;
          Alcotest.test_case "bounded state on long runs" `Quick
            test_history_stays_bounded_under_long_run;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "message loss (Section 3.3)" `Quick test_lossy_mode;
          Alcotest.test_case "send validation" `Quick test_send_validation;
          Alcotest.test_case "naive general algorithm agrees" `Quick
            test_naive_equivalence;
          Alcotest.test_case "peer clock bounds (internal-sync style)" `Quick
            test_peer_clock_bounds;
          Alcotest.test_case "snapshot and restore" `Quick test_snapshot_restore;
          Alcotest.test_case "snapshot refusals" `Quick test_snapshot_refusals;
          Alcotest.test_case "overflowing elapse refused" `Quick
            test_overflowing_elapse;
          Alcotest.test_case "snapshot in lossy mode" `Quick
            test_snapshot_lossy_mode;
        ] );
      qsuite "props" [ prop_random_executions ];
    ]
