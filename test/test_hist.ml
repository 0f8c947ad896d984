(* Tests for the full-information propagation protocol (Section 3.1 /
   Figure 2): causal closure (Lemma 3.1), at-most-once reporting
   (Lemma 3.2), bounded history (Lemma 3.3), the receive-rule regression
   on path topologies, and loss handling (Section 3.3). *)

(* A miniature driver: one History per node plus the event construction a
   Csa would do.  Local times are just supplied by the test. *)
type node = {
  hist : History.t;
  mutable seq : int;
  proc : Event.proc;
}

let mk_node ?(lossy = false) ~n ~proc ~neighbors () =
  let hist = History.create ~n_procs:n ~me:proc ~neighbors ~lossy () in
  let node = { hist; seq = 0; proc } in
  History.learn_own hist
    { Event.id = { proc; seq = 0 }; lt = 0; kind = Event.Init };
  node.seq <- 1;
  node

let fresh node lt kind =
  let e = { Event.id = { proc = node.proc; seq = node.seq }; lt; kind } in
  node.seq <- node.seq + 1;
  e

let do_send node ~dst ~msg ~lt =
  History.prepare_send node.hist (fresh node lt (Event.Send { msg; dst }))

let do_recv node ~src ~msg ~lt payload =
  let news = History.integrate node.hist payload in
  let recv =
    fresh node lt
      (Event.Recv { msg; src; send = payload.Payload.send_event.id })
  in
  History.learn_own node.hist recv;
  news

let ids payload =
  List.map (fun (e : Event.t) -> (Event.loc e, e.id.seq)) payload.Payload.events
  |> List.sort compare

let test_two_node_exchange () =
  let a = mk_node ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let b = mk_node ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  let p1 = do_send a ~dst:1 ~msg:1 ~lt:5 in
  (* first message carries a's whole history: init + the send *)
  Alcotest.(check (list (pair int int))) "first payload"
    [ (0, 0); (0, 1) ] (ids p1);
  (* after reporting everything to its only neighbor, H_a is empty *)
  Alcotest.(check int) "H_a garbage collected" 0 (History.h_size a.hist);
  let news = do_recv b ~src:0 ~msg:1 ~lt:7 p1 in
  Alcotest.(check int) "b learned two events" 2 (List.length news);
  Alcotest.(check int) "b knows a up to seq 1" 1 (History.known_upto b.hist 0);
  Alcotest.(check int) "b's own recv recorded" 1 (History.known_upto b.hist 1);
  (* b replies: payload must contain b's init + recv + the reply send, but
     nothing of a's (a knows its own events) *)
  let p2 = do_send b ~dst:0 ~msg:2 ~lt:9 in
  Alcotest.(check (list (pair int int))) "reply payload"
    [ (1, 0); (1, 1); (1, 2) ] (ids p2);
  let news2 = do_recv a ~src:1 ~msg:2 ~lt:11 p2 in
  Alcotest.(check int) "a learned three events" 3 (List.length news2);
  (* a third exchange carries only genuinely new events *)
  let p3 = do_send a ~dst:1 ~msg:3 ~lt:12 in
  Alcotest.(check (list (pair int int))) "third payload: only new"
    [ (0, 2); (0, 3) ] (ids p3)

let test_integrate_returns_topological_order () =
  let a = mk_node ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let b = mk_node ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  let p1 = do_send a ~dst:1 ~msg:1 ~lt:5 in
  let news = History.integrate b.hist p1 in
  (match news with
  | [ e1; e2 ] ->
    Alcotest.(check int) "init first" 0 e1.Event.id.seq;
    Alcotest.(check int) "send second" 1 e2.Event.id.seq
  | _ -> Alcotest.fail "expected two events")

(* The regression the paper's Figure 2 pseudo-code would fail: on a path
   w — v — u, v must forward w's events to u even after hearing from u in
   between.  The figure's merged-buffer rule would set C_vu[w] to v's own
   knowledge and skip them. *)
let test_path_forwarding_regression () =
  let w = mk_node ~n:3 ~proc:0 ~neighbors:[ 1 ] () in
  let v = mk_node ~n:3 ~proc:1 ~neighbors:[ 0; 2 ] () in
  let u = mk_node ~n:3 ~proc:2 ~neighbors:[ 1 ] () in
  (* w -> v : v learns w's events *)
  let pw = do_send w ~dst:1 ~msg:1 ~lt:5 in
  ignore (do_recv v ~src:0 ~msg:1 ~lt:6 pw);
  (* u -> v : v hears from u (no w knowledge in it) *)
  let pu = do_send u ~dst:1 ~msg:2 ~lt:5 in
  ignore (do_recv v ~src:2 ~msg:2 ~lt:8 pu);
  (* with the buggy rule, C_v,u[w] would now claim u knows w's events *)
  Alcotest.(check int) "frontier for w on link (v,u) untouched" (-1)
    (History.frontier v.hist ~neighbor:2 0);
  (* v -> u : w's events must be included *)
  let pv = do_send v ~dst:2 ~msg:3 ~lt:10 in
  let reported_w_events =
    List.filter (fun (e : Event.t) -> Event.loc e = 0) pv.Payload.events
  in
  Alcotest.(check int) "w's events forwarded" 2 (List.length reported_w_events);
  let news = do_recv u ~src:1 ~msg:3 ~lt:12 pv in
  (* u learns: w's init + send, v's init + recv(m1) + recv(m2) + send *)
  Alcotest.(check int) "u gets the transitive closure" 6 (List.length news);
  Alcotest.(check int) "u knows w now" 1 (History.known_upto u.hist 0)

let test_at_most_once_per_link (* Lemma 3.2 *) () =
  (* ping-pong 20 times and track how often each event crosses the link in
     each direction *)
  let a = mk_node ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let b = mk_node ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  let counts = Hashtbl.create 64 in
  let record dir payload =
    List.iter
      (fun (e : Event.t) ->
        let key = (dir, e.id.Event.proc, e.id.Event.seq) in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
      payload.Payload.events
  in
  let lt = ref 1 in
  for i = 1 to 20 do
    incr lt;
    let pa = do_send a ~dst:1 ~msg:(2 * i) ~lt:!lt in
    record `AB pa;
    incr lt;
    ignore (do_recv b ~src:0 ~msg:(2 * i) ~lt:!lt pa);
    incr lt;
    let pb = do_send b ~dst:0 ~msg:((2 * i) + 1) ~lt:!lt in
    record `BA pb;
    incr lt;
    ignore (do_recv a ~src:1 ~msg:((2 * i) + 1) ~lt:!lt pb)
  done;
  Hashtbl.iter
    (fun (_, p, s) c ->
      if c > 1 then
        Alcotest.failf "event p%d#%d reported %d times on one link" p s c)
    counts;
  (* histories stay bounded through 20 rounds *)
  Alcotest.(check bool) "H_a bounded" true (History.peak_h_size a.hist <= 6);
  Alcotest.(check bool) "H_b bounded" true (History.peak_h_size b.hist <= 6)

let test_ring_history_bounded (* Lemma 3.3 flavour *) () =
  (* a 4-ring with round-robin token passing; peak |H| must stay O(K1 * D),
     far below the total number of events *)
  let n = 4 in
  let nodes =
    Array.init n (fun p ->
        mk_node ~n ~proc:p ~neighbors:[ (p + n - 1) mod n; (p + 1) mod n ] ())
  in
  let lt = ref 0 in
  let msg = ref 0 in
  for _round = 1 to 25 do
    for p = 0 to n - 1 do
      incr lt;
      incr msg;
      let dst = (p + 1) mod n in
      let payload = do_send nodes.(p) ~dst ~msg:!msg ~lt:!lt in
      incr lt;
      ignore (do_recv nodes.(dst) ~src:p ~msg:!msg ~lt:!lt payload)
    done
  done;
  let total_events = Array.fold_left (fun acc nd -> acc + nd.seq) 0 nodes in
  Alcotest.(check bool) "many events happened" true (total_events > 200);
  Array.iter
    (fun nd ->
      let peak = History.peak_h_size nd.hist in
      Alcotest.(check bool)
        (Printf.sprintf "peak |H_%d| = %d stays small" nd.proc peak)
        true
        (peak <= 40))
    nodes

let test_bad_payload_rejected () =
  let b = mk_node ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  (* a payload whose send event depends on an unreported predecessor *)
  let orphan_send =
    { Event.id = { proc = 0; seq = 3 }; lt = 9;
      kind = Event.Send { msg = 1; dst = 1 } }
  in
  let payload = { Payload.send_event = orphan_send; events = [ orphan_send ] } in
  match History.integrate b.hist payload with
  | _ -> Alcotest.fail "expected a causal-closure rejection"
  | exception History.Not_causally_closed m ->
    let prefix = "History.integrate: payload not causally closed" in
    Alcotest.(check bool) "names the closure failure" true
      (String.length m >= String.length prefix
      && String.sub m 0 (String.length prefix) = prefix)

let test_lossy_retransmission (* Section 3.3 *) () =
  let a = mk_node ~lossy:true ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let b = mk_node ~lossy:true ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  (* first message is lost *)
  let p1 = do_send a ~dst:1 ~msg:1 ~lt:5 in
  Alcotest.(check int) "two events in the lost message" 2 (Payload.size p1);
  History.on_lost a.hist ~msg:1;
  (* frontier rolled back: the next send re-reports everything, plus the
     new send event *)
  let p2 = do_send a ~dst:1 ~msg:2 ~lt:8 in
  Alcotest.(check (list (pair int int))) "retransmission"
    [ (0, 0); (0, 1); (0, 2) ] (ids p2);
  let news = do_recv b ~src:0 ~msg:2 ~lt:9 p2 in
  Alcotest.(check int) "receiver catches up fully" 3 (List.length news);
  History.on_delivered a.hist ~msg:2;
  (* delivered messages do not linger as retransmission state: losing an
     already-delivered message id is a no-op *)
  History.on_lost a.hist ~msg:2;
  let p3 = do_send a ~dst:1 ~msg:3 ~lt:10 in
  Alcotest.(check (list (pair int int))) "no spurious re-report"
    [ (0, 3) ] (ids p3)

(* Regression: with several messages inflight to one destination, loss
   verdicts arriving oldest-first used to overwrite the rollback of the
   older message with the newer one's higher pre-send frontier; the gap
   was then never re-reported and the receiver rejected every later
   payload as not causally closed. *)
let test_loss_verdict_order_independent () =
  let a = mk_node ~lossy:true ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let b = mk_node ~lossy:true ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  let _p1 = do_send a ~dst:1 ~msg:1 ~lt:1 in
  let _p2 = do_send a ~dst:1 ~msg:2 ~lt:2 in
  History.on_lost a.hist ~msg:1;
  History.on_lost a.hist ~msg:2;
  let p3 = do_send a ~dst:1 ~msg:3 ~lt:3 in
  Alcotest.(check (list (pair int int)))
    "rollback floors at the oldest loss"
    [ (0, 0); (0, 1); (0, 2); (0, 3) ]
    (ids p3);
  let news = do_recv b ~src:0 ~msg:3 ~lt:4 p3 in
  Alcotest.(check int) "receiver integrates everything" 4 (List.length news)

(* Regression: garbage collection used to trust the optimistic frontier
   advance of unacknowledged sends.  Rolling back one lost message then
   preparing a payload while a second message was still inflight scanned
   an H missing the events collected under the second message's
   coverage — every payload was under-inclusive until that second loss
   was also declared, and with heartbeats faster than the ack timeout a
   real peer never saw a complete payload at all. *)
let test_gc_waits_for_acks () =
  let a = mk_node ~lossy:true ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let b = mk_node ~lossy:true ~n:2 ~proc:1 ~neighbors:[ 0 ] () in
  let _p1 = do_send a ~dst:1 ~msg:1 ~lt:1 in
  History.learn_own a.hist (fresh a 2 Event.Internal);
  let _p2 = do_send a ~dst:1 ~msg:2 ~lt:3 in
  Alcotest.(check int) "unacked events stay in H" 4 (History.h_size a.hist);
  History.on_lost a.hist ~msg:1;
  (* msg 2 is still inflight when this payload is prepared *)
  let p3 = do_send a ~dst:1 ~msg:3 ~lt:4 in
  Alcotest.(check (list (pair int int)))
    "causally closed re-report"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (0, 4) ]
    (ids p3);
  let news = do_recv b ~src:0 ~msg:3 ~lt:5 p3 in
  Alcotest.(check int) "receiver integrates everything" 5 (List.length news);
  (* acknowledging the survivors releases the retained events *)
  History.on_delivered a.hist ~msg:2;
  History.on_delivered a.hist ~msg:3;
  let p4 = do_send a ~dst:1 ~msg:4 ~lt:6 in
  ignore (do_recv b ~src:0 ~msg:4 ~lt:7 p4);
  History.on_delivered a.hist ~msg:4;
  Alcotest.(check int) "H drains once acked" 0 (History.h_size a.hist)

let test_reliable_mode_ignores_loss_hooks () =
  let a = mk_node ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let _p1 = do_send a ~dst:1 ~msg:1 ~lt:5 in
  History.on_lost a.hist ~msg:1;
  (* reliable mode: no rollback happened *)
  let p2 = do_send a ~dst:1 ~msg:2 ~lt:8 in
  Alcotest.(check (list (pair int int))) "only the new send" [ (0, 2) ] (ids p2)

let test_learn_own_validation () =
  let a = mk_node ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  Alcotest.check_raises "foreign event"
    (Invalid_argument "History.learn_own: foreign event") (fun () ->
      History.learn_own a.hist
        { Event.id = { proc = 1; seq = 0 }; lt = 0; kind = Event.Init });
  Alcotest.check_raises "send via learn_own"
    (Invalid_argument "History.learn_own: send events go through prepare_send")
    (fun () ->
      History.learn_own a.hist
        { Event.id = { proc = 0; seq = 1 }; lt = 1;
          kind = Event.Send { msg = 9; dst = 1 } });
  Alcotest.check_raises "gap in own events"
    (Invalid_argument "History: non-contiguous event p0#5 (known up to 0)")
    (fun () ->
      History.learn_own a.hist
        { Event.id = { proc = 0; seq = 5 }; lt = 1; kind = Event.Internal })

let test_gc_exactness () =
  (* H must contain exactly the known events not yet covered by every
     neighbor's frontier — the garbage-collection invariant behind
     Lemma 3.3 *)
  let w = mk_node ~n:3 ~proc:0 ~neighbors:[ 1 ] () in
  let v = mk_node ~n:3 ~proc:1 ~neighbors:[ 0; 2 ] () in
  let pw = do_send w ~dst:1 ~msg:1 ~lt:3 in
  ignore (do_recv v ~src:0 ~msg:1 ~lt:4 pw);
  (* v knows w's 2 events + its own 2; none reported to neighbor 2, and
     the recv event not yet reported back to 0 *)
  let expected_h node =
    let n = 3 in
    let count = ref 0 in
    for p = 0 to n - 1 do
      for s = 0 to History.known_upto node.hist p do
        let covered = ref true in
        List.iter
          (fun u ->
            if History.frontier node.hist ~neighbor:u p < s then covered := false)
          (match node.proc with 0 -> [ 1 ] | 1 -> [ 0; 2 ] | _ -> [ 1 ]);
        if not !covered then incr count
      done
    done;
    !count
  in
  Alcotest.(check int) "H_v size matches uncovered-event count"
    (expected_h v) (History.h_size v.hist);
  (* after v reports to both neighbors, only the very last send event —
     which neighbor 2 has not been shown — remains *)
  let _p2 = do_send v ~dst:2 ~msg:2 ~lt:6 in
  let _p3 = do_send v ~dst:0 ~msg:3 ~lt:7 in
  Alcotest.(check int) "invariant still matches" (expected_h v)
    (History.h_size v.hist);
  Alcotest.(check int) "only the uncovered last send remains" 1
    (History.h_size v.hist)

(* Property: random gossip on a star topology; every node's knowledge is
   exactly the causal past of its last event (Lemma 3.1), verified against
   an omniscient global view. *)
let prop_causal_closure =
  QCheck.Test.make ~name:"history: knowledge = local view (Lemma 3.1)"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 5 60) (pair (int_range 0 3) (int_range 0 2)))
    (fun script ->
      let n = 4 in
      let neighbors p = if p = 0 then [ 1; 2; 3 ] else [ 0 ] in
      let nodes =
        Array.init n (fun p -> mk_node ~n ~proc:p ~neighbors:(neighbors p) ())
      in
      let global = View.create ~n_procs:n in
      Array.iter
        (fun nd ->
          View.add global
            { Event.id = { proc = nd.proc; seq = 0 }; lt = 0;
              kind = Event.Init })
        nodes;
      let lt = ref 0 in
      let msg = ref 0 in
      let ok = ref true in
      List.iter
        (fun (src, dst_choice) ->
          (* only hub-leaf pairs exist *)
          let src, dst = if src = 0 then (0, 1 + dst_choice) else (src, 0) in
          incr lt;
          incr msg;
          let payload = do_send nodes.(src) ~dst ~msg:!msg ~lt:!lt in
          View.add global payload.Payload.send_event;
          incr lt;
          ignore (do_recv nodes.(dst) ~src ~msg:!msg ~lt:!lt payload);
          let recv_id = { Event.proc = dst; seq = nodes.(dst).seq - 1 } in
          View.add global
            { Event.id = recv_id; lt = !lt;
              kind =
                Event.Recv
                  { msg = !msg; src; send = payload.Payload.send_event.id } };
          (* check: dst's per-proc knowledge equals the causal past of its
             latest event in the omniscient view *)
          let past = Hb.causal_past global recv_id in
          let expected = Array.make n (-1) in
          List.iter
            (fun (e : Event.t) ->
              let p = Event.loc e in
              if e.id.seq > expected.(p) then expected.(p) <- e.id.seq)
            past;
          for p = 0 to n - 1 do
            if History.known_upto nodes.(dst).hist p <> expected.(p) then
              ok := false
          done)
        script;
      !ok)

(* --- wire codec ------------------------------------------------------- *)

let test_codec_roundtrip_basic () =
  let a = mk_node ~n:3 ~proc:0 ~neighbors:[ 1 ] () in
  let payload = do_send a ~dst:1 ~msg:7 ~lt:5 in
  let decoded = Codec.decode (Codec.encode payload) in
  Alcotest.(check int) "same size" (Payload.size payload) (Payload.size decoded);
  Alcotest.(check bool) "same send event" true
    (Event.id_equal decoded.Payload.send_event.id payload.Payload.send_event.id);
  List.iter2
    (fun (x : Event.t) (y : Event.t) ->
      Alcotest.(check bool) "event preserved" true
        (Event.id_equal x.id y.id && x.lt = y.lt && x.kind = y.kind))
    payload.Payload.events decoded.Payload.events;
  Alcotest.(check bool) "size counts bytes" true (Codec.size payload > 4)

let test_codec_rational_timestamps () =
  (* timestamps are ticks: the whole zigzag range survives the trip, at
     one varint each, and a tick count past it is refused at encode *)
  let ev seq lt kind = { Event.id = { proc = 1; seq }; lt; kind } in
  let send lt = ev 6 lt (Event.Send { msg = 42; dst = 0 }) in
  let lts =
    [ 12345000001; -7; 0; (1 lsl 61) - 1; -(1 lsl 61); -((1 lsl 61) - 1) ]
  in
  let events = List.mapi (fun i lt -> ev i lt Event.Internal) lts in
  let p = { Payload.send_event = send 5; events = events @ [ send 5 ] } in
  let d = Codec.decode (Codec.encode p) in
  Alcotest.(check (list int)) "lt"
    (List.map (fun (e : Event.t) -> e.lt) p.Payload.events)
    (List.map (fun (e : Event.t) -> e.lt) d.Payload.events);
  Alcotest.(check int) "size" (Codec.size p) (String.length (Codec.encode p));
  let one = { Payload.send_event = send 1; events = [ send 1 ] } in
  Alcotest.(check int) "a one-byte timestamp" 8
    (String.length (Codec.encode one));
  Alcotest.check_raises "past 2^61 - 1"
    (Invalid_argument
       "Wire.zigzag: 2305843009213693952 is outside [-2^61, 2^61 - 1]")
    (fun () ->
      let e = send (1 lsl 61) in
      ignore (Codec.encode { Payload.send_event = e; events = [ e ] }))

let test_codec_malformed () =
  let reject name s =
    match Codec.decode s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: expected decode failure" name
  in
  reject "empty" "";
  reject "truncated" "\x05\x01";
  let a = mk_node ~n:2 ~proc:0 ~neighbors:[ 1 ] () in
  let good = Codec.encode (do_send a ~dst:1 ~msg:1 ~lt:3) in
  reject "trailing garbage" (good ^ "x");
  reject "chopped" (String.sub good 0 (String.length good - 2))

(* adversarial robustness: whatever the bytes, [decode] either succeeds
   or raises [Failure] — never [Invalid_argument], [Out_of_memory], or a
   crash (the net layer depends on this at the socket boundary) *)
let decode_total name s =
  match Codec.decode s with
  | (_ : Payload.t) -> ()
  | exception Failure _ -> ()
  | exception e ->
    Alcotest.failf "%s: decode raised %s" name (Printexc.to_string e)

let fuzz_subject () =
  let a = mk_node ~n:3 ~proc:0 ~neighbors:[ 1; 2 ] () in
  ignore (do_send a ~dst:1 ~msg:5 ~lt:4);
  Codec.encode (do_send a ~dst:2 ~msg:6 ~lt:7)

let test_codec_fuzz_truncations () =
  let good = fuzz_subject () in
  for len = 0 to String.length good - 1 do
    decode_total (Printf.sprintf "prefix of %d bytes" len)
      (String.sub good 0 len)
  done

let test_codec_fuzz_bitflips () =
  let good = fuzz_subject () in
  for i = 0 to String.length good - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code good.[i] lxor (1 lsl bit)));
      decode_total (Printf.sprintf "bit %d of byte %d flipped" bit i)
        (Bytes.to_string b)
    done
  done

let test_codec_fuzz_random_bytes () =
  let rng = Rng.create 2024 in
  for case = 1 to 500 do
    let len = Rng.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    decode_total (Printf.sprintf "random case %d" case) s
  done

let test_decode_result () =
  let good = fuzz_subject () in
  (match Codec.decode_result good with
  | Ok p -> Alcotest.(check bool) "nonempty" true (Payload.size p > 0)
  | Error e -> Alcotest.failf "valid bytes rejected: %s" e);
  match Codec.decode_result (String.sub good 0 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated bytes accepted"

(* --- differential oracle: the pre-slice string decoder ---------------- *)

(* The decoder as it stood before the zero-copy refactor: a [string]
   reader, written independently of [Wire]'s, moved to the frame v2
   layout (a timestamp is one zigzag varint of ticks).  Kept as a
   test-only reference — the slice decoder must agree with it bit for
   bit on every input, success and failure alike. *)
module Reference_codec = struct
  type reader = { s : string; mutable pos : int }

  let byte r =
    if r.pos >= String.length r.s then failwith "Codec.decode: truncated";
    let c = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let read_varint r =
    let rec go shift acc =
      if shift > 62 then failwith "Codec.decode: varint overflow";
      let b = byte r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let v = go 0 0 in
    if v < 0 then failwith "Codec.decode: varint overflow";
    v

  (* a timestamp is one zigzag varint of ticks *)
  let read_lt r =
    let u = read_varint r in
    (u lsr 1) lxor -(u land 1)

  let read_event r =
    let proc = read_varint r in
    let seq = read_varint r in
    let lt = read_lt r in
    let kind =
      match read_varint r with
      | 0 -> Event.Init
      | 1 -> Event.Internal
      | 2 ->
        let msg = read_varint r in
        let dst = read_varint r in
        Event.Send { msg; dst }
      | 3 ->
        let msg = read_varint r in
        let src = read_varint r in
        let sproc = read_varint r in
        let sseq = read_varint r in
        Event.Recv { msg; src; send = { proc = sproc; seq = sseq } }
      | _ -> failwith "Codec.decode: bad kind tag"
    in
    { Event.id = { proc; seq }; lt; kind }

  let remaining r = String.length r.s - r.pos

  let decode s =
    try
      let r = { s; pos = 0 } in
      let count = read_varint r in
      if count <= 0 then failwith "Codec.decode: empty payload";
      if count > remaining r then failwith "Codec.decode: truncated";
      let events = ref [] in
      for _ = 1 to count do
        events := read_event r :: !events
      done;
      let events = List.rev !events in
      let index = read_varint r in
      if r.pos <> String.length s then failwith "Codec.decode: trailing bytes";
      if index < 0 || index >= count then
        failwith "Codec.decode: bad send index";
      let send_event = List.nth events index in
      if not (Event.is_send send_event) then
        failwith "Codec.decode: send index does not reference a send";
      { Payload.send_event; events }
    with
    | Failure _ as e -> raise e
    | Invalid_argument m -> failwith ("Codec.decode: " ^ m)
    | Division_by_zero -> failwith "Codec.decode: division by zero"

  let decode_result s =
    match decode s with
    | p -> Ok p
    | exception Failure m -> Error m
end

let payload_equal (a : Payload.t) (b : Payload.t) =
  Event.id_equal a.Payload.send_event.id b.Payload.send_event.id
  && List.length a.Payload.events = List.length b.Payload.events
  && List.for_all2
       (fun (x : Event.t) (y : Event.t) ->
         Event.id_equal x.id y.id && x.lt = y.lt && x.kind = y.kind)
       a.Payload.events b.Payload.events

(* both decoders on the same bytes: identical payloads on Ok, identical
   error classification (the exact message) on failure *)
let check_differential name s =
  match (Reference_codec.decode_result s, Codec.decode_result s) with
  | Ok a, Ok b ->
    if not (payload_equal a b) then
      Alcotest.failf "%s: decoders accept but disagree" name
  | Error a, Error b ->
    if not (String.equal a b) then
      Alcotest.failf "%s: error classes differ: reference %S vs slice %S" name
        a b
  | Ok _, Error e ->
    Alcotest.failf "%s: reference accepts, slice rejects (%s)" name e
  | Error e, Ok _ ->
    Alcotest.failf "%s: reference rejects (%s), slice accepts" name e

let test_codec_differential_valid () =
  let a = mk_node ~n:3 ~proc:0 ~neighbors:[ 1; 2 ] () in
  for i = 1 to 40 do
    let wire =
      Codec.encode (do_send a ~dst:(1 + (i mod 2)) ~msg:i ~lt:(3 * i))
    in
    check_differential (Printf.sprintf "valid frame %d" i) wire
  done

let test_codec_differential_truncations () =
  let good = fuzz_subject () in
  for len = 0 to String.length good - 1 do
    check_differential
      (Printf.sprintf "prefix of %d bytes" len)
      (String.sub good 0 len)
  done

let test_codec_differential_bitflips () =
  let good = fuzz_subject () in
  for i = 0 to String.length good - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code good.[i] lxor (1 lsl bit)));
      check_differential
        (Printf.sprintf "bit %d of byte %d flipped" bit i)
        (Bytes.to_string b)
    done
  done

let arbitrary_payload =
  let open QCheck in
  let gen =
    Gen.(
      let* n_extra = int_range 0 6 in
      (* ticks across the zigzag range: short and long varints alike *)
      let* lts =
        list_repeat (n_extra + 2)
          (oneof
             [
               int_range (-100000) 100000;
               int_range (-(1 lsl 61)) ((1 lsl 61) - 1);
               oneofl [ -(1 lsl 61); (1 lsl 61) - 1 ];
             ])
      in
      let lts = List.sort compare lts in
      (* a single-processor timeline ending in a send; enough shape variety
         for the codec *)
      let events =
        List.mapi
          (fun i lt ->
            let kind =
              if i = 0 then Event.Init
              else if i mod 3 = 1 then Event.Internal
              else Event.Send { msg = i; dst = 1 }
            in
            { Event.id = { Event.proc = 0; seq = i }; lt; kind })
          lts
      in
      let send_event =
        let last = List.nth events (List.length events - 1) in
        { last with kind = Event.Send { msg = 999; dst = 1 } }
      in
      let events =
        List.mapi
          (fun i e ->
            if i = List.length lts - 1 then send_event else e)
          events
      in
      return { Payload.send_event; events })
  in
  make ~print:(fun p -> Format.asprintf "%a" Payload.pp p) gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: decode (encode p) = p" ~count:300
    arbitrary_payload (fun p ->
      let d = Codec.decode (Codec.encode p) in
      List.length d.Payload.events = List.length p.Payload.events
      && List.for_all2
           (fun (x : Event.t) (y : Event.t) ->
             Event.id_equal x.id y.id && x.lt = y.lt && x.kind = y.kind)
           p.Payload.events d.Payload.events
      && Event.id_equal d.Payload.send_event.id p.Payload.send_event.id)

let prop_codec_size =
  QCheck.Test.make ~name:"codec: size p = String.length (encode p)" ~count:300
    arbitrary_payload (fun p ->
      Codec.size p = String.length (Codec.encode p))

let prop_codec_differential =
  QCheck.Test.make
    ~name:"codec: slice decoder = reference string decoder" ~count:300
    arbitrary_payload (fun p ->
      let wire = Codec.encode p in
      check_differential "random payload" wire;
      true)

(* Every checkpoint and frame encodes its ints through [Wire.add_varint]:
   into a buffer with room to spare it must not allocate at all (a local
   closure over the buffer once cost a few words per call). *)
let test_varint_allocates_nothing () =
  let buf = Buffer.create 16_384 in
  let values = [| 0; 1; 127; 128; 300; 1 lsl 20; max_int |] in
  let k = Array.length values in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    Wire.add_varint buf (Array.unsafe_get values (i mod k))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 1000 calls" 0. words;
  Alcotest.(check bool) "bytes written" true (Buffer.length buf > 1000)

(* [Wire.zigzag] is a bijection only on [-2^61, 2^61 - 1]: its ends
   round-trip through a varint, and an int past them is refused rather
   than folded onto another one. *)
let test_zigzag_range () =
  let lo = -(1 lsl 61) and hi = (1 lsl 61) - 1 in
  List.iter
    (fun n ->
      let buf = Buffer.create 10 in
      Wire.add_varint buf (Wire.zigzag n);
      let s = Buffer.contents buf in
      let r = Wire.reader ~what:"zigzag" (Bytes.of_string s) ~pos:0
          ~len:(String.length s) in
      Alcotest.(check int) (Printf.sprintf "%d round-trips" n) n
        (Wire.unzigzag (Wire.read_varint r)))
    [ 0; -1; 1; hi; -hi; lo ];
  Alcotest.(check int) "ends map to the extremes" max_int (Wire.zigzag lo);
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "%d refused" n)
        (Invalid_argument
           (Printf.sprintf "Wire.zigzag: %d is outside [-2^61, 2^61 - 1]" n))
        (fun () -> ignore (Wire.zigzag n)))
    [ 1 lsl 61; lo - 1; max_int; min_int ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "hist"
    [
      ( "protocol",
        [
          Alcotest.test_case "two-node exchange" `Quick test_two_node_exchange;
          Alcotest.test_case "topological integrate" `Quick
            test_integrate_returns_topological_order;
          Alcotest.test_case "path forwarding (figure-2 regression)" `Quick
            test_path_forwarding_regression;
          Alcotest.test_case "at-most-once per link (Lemma 3.2)" `Quick
            test_at_most_once_per_link;
          Alcotest.test_case "bounded history on a ring (Lemma 3.3)" `Quick
            test_ring_history_bounded;
          Alcotest.test_case "bad payload rejected" `Quick
            test_bad_payload_rejected;
          Alcotest.test_case "gc exactness" `Quick test_gc_exactness;
          Alcotest.test_case "learn_own validation" `Quick
            test_learn_own_validation;
        ] );
      ( "loss",
        [
          Alcotest.test_case "loss verdict order independent" `Quick
            test_loss_verdict_order_independent;
          Alcotest.test_case "gc waits for acks" `Quick test_gc_waits_for_acks;
          Alcotest.test_case "lossy retransmission (Section 3.3)" `Quick
            test_lossy_retransmission;
          Alcotest.test_case "reliable mode ignores loss hooks" `Quick
            test_reliable_mode_ignores_loss_hooks;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip_basic;
          Alcotest.test_case "rational timestamps" `Quick
            test_codec_rational_timestamps;
          Alcotest.test_case "malformed input rejected" `Quick
            test_codec_malformed;
          Alcotest.test_case "fuzz: every truncation fails cleanly" `Quick
            test_codec_fuzz_truncations;
          Alcotest.test_case "fuzz: every bit flip fails cleanly" `Quick
            test_codec_fuzz_bitflips;
          Alcotest.test_case "fuzz: random bytes fail cleanly" `Quick
            test_codec_fuzz_random_bytes;
          Alcotest.test_case "decode_result" `Quick test_decode_result;
          Alcotest.test_case "differential: valid frames" `Quick
            test_codec_differential_valid;
          Alcotest.test_case "differential: every truncation" `Quick
            test_codec_differential_truncations;
          Alcotest.test_case "differential: every bit flip" `Quick
            test_codec_differential_bitflips;
          Alcotest.test_case "zigzag range" `Quick test_zigzag_range;
          Alcotest.test_case "varint encoding allocates nothing" `Quick
            test_varint_allocates_nothing;
        ] );
      qsuite "props"
        [
          prop_causal_closure;
          prop_codec_roundtrip;
          prop_codec_size;
          prop_codec_differential;
        ];
    ]
