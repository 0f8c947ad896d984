(* Tests for events, views, liveness (Definition 3.1), happened-before,
   and batch topological merging. *)
let ev ?(kind = Event.Internal) proc seq lt =
  { Event.id = { proc; seq }; lt; kind }

let init proc lt = ev ~kind:Event.Init proc 0 lt

let send_ev proc seq lt ~msg ~dst =
  ev ~kind:(Event.Send { msg; dst }) proc seq lt

let recv_ev proc seq lt ~msg ~src ~send_seq =
  ev ~kind:(Event.Recv { msg; src; send = { proc = src; seq = send_seq } })
    proc seq lt

let test_event_basics () =
  let e = send_ev 1 3 10 ~msg:7 ~dst:2 in
  Alcotest.(check int) "loc" 1 (Event.loc e);
  Alcotest.(check bool) "is_send" true (Event.is_send e);
  Alcotest.(check bool) "is_recv" false (Event.is_recv e);
  Alcotest.(check (option int)) "sent_msg" (Some 7) (Event.sent_msg e);
  (match Event.prev_id e with
  | Some p -> Alcotest.(check int) "prev seq" 2 p.seq
  | None -> Alcotest.fail "expected predecessor");
  Alcotest.(check (option reject)) "init has no prev" None
    (Event.prev_id (init 0 0) |> Option.map ignore);
  Alcotest.(check int) "id compare equal" 0
    (Event.id_compare e.id { proc = 1; seq = 3 });
  Alcotest.(check bool) "id ordering" true
    (Event.id_compare { Event.proc = 0; seq = 9 } { Event.proc = 1; seq = 0 } < 0)

let test_view_add_and_lookup () =
  let v = View.create ~n_procs:2 in
  View.add v (init 0 0);
  View.add v (ev 0 1 5);
  View.add v (init 1 0);
  Alcotest.(check int) "size" 3 (View.size v);
  Alcotest.(check bool) "mem" true (View.mem v { proc = 0; seq = 1 });
  Alcotest.(check bool) "not mem" false (View.mem v { proc = 1; seq = 1 });
  (match View.last_of v 0 with
  | Some e -> Alcotest.(check int) "last seq" 1 e.id.seq
  | None -> Alcotest.fail "expected a last event");
  Alcotest.(check int) "events of proc 0" 2 (List.length (View.events_of v 0));
  Alcotest.(check int) "insertion order" 3 (List.length (View.to_list v))

let test_view_validation () =
  let v = View.create ~n_procs:2 in
  View.add v (init 0 0);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "View.add: duplicate p0#0") (fun () -> View.add v (init 0 0));
  Alcotest.check_raises "gap"
    (Invalid_argument "View.add: out-of-order insert of p0#2") (fun () ->
      View.add v (ev 0 2 5));
  Alcotest.check_raises "missing predecessor"
    (Invalid_argument "View.add: missing predecessor of p1#1") (fun () ->
      View.add v (ev 1 1 5));
  Alcotest.check_raises "first must be init"
    (Invalid_argument "View.add: first event of a processor must be Init")
    (fun () -> View.add v (ev 1 0 5));
  View.add v (ev 0 1 5);
  Alcotest.check_raises "time regression"
    (Invalid_argument "View.add: local time regression at p0#2") (fun () ->
      View.add v (ev 0 2 3));
  Alcotest.check_raises "receive before send"
    (Invalid_argument "View.add: receive p0#2 before its send") (fun () ->
      View.add v (recv_ev 0 2 9 ~msg:1 ~src:1 ~send_seq:0))

let mk_message_view () =
  (* p0: init --- send(m1) ---------- ; p1: init ---- recv(m1) *)
  let v = View.create ~n_procs:2 in
  View.add v (init 0 0);
  View.add v (send_ev 0 1 4 ~msg:1 ~dst:1);
  View.add v (init 1 0);
  View.add v (recv_ev 1 1 7 ~msg:1 ~src:0 ~send_seq:1);
  v

let test_liveness () =
  let v = View.create ~n_procs:2 in
  View.add v (init 0 0);
  Alcotest.(check bool) "init is live (last)" true
    (View.is_live v { proc = 0; seq = 0 });
  View.add v (send_ev 0 1 4 ~msg:1 ~dst:1);
  Alcotest.(check bool) "superseded init is dead" false
    (View.is_live v { proc = 0; seq = 0 });
  Alcotest.(check bool) "pending send is live" true
    (View.is_live v { proc = 0; seq = 1 });
  View.add v (ev 0 2 6);
  Alcotest.(check bool) "send still live while undelivered" true
    (View.is_live v { proc = 0; seq = 1 });
  View.add v (init 1 0);
  View.add v (recv_ev 1 1 7 ~msg:1 ~src:0 ~send_seq:1);
  Alcotest.(check bool) "delivered send is dead" false
    (View.is_live v { proc = 0; seq = 1 });
  Alcotest.(check bool) "recv is live (last of p1)" true
    (View.is_live v { proc = 1; seq = 1 });
  let live = View.live_points v in
  Alcotest.(check int) "two live points" 2 (List.length live)

let test_happened_before () =
  let v = mk_message_view () in
  let hb a b = Hb.happened_before v a b in
  let id p s = { Event.proc = p; seq = s } in
  Alcotest.(check bool) "reflexive" true (hb (id 0 0) (id 0 0));
  Alcotest.(check bool) "proc order" true (hb (id 0 0) (id 0 1));
  Alcotest.(check bool) "not backwards" false (hb (id 0 1) (id 0 0));
  Alcotest.(check bool) "across message" true (hb (id 0 0) (id 1 1));
  Alcotest.(check bool) "send to recv" true (hb (id 0 1) (id 1 1));
  Alcotest.(check bool) "inits concurrent" true (Hb.concurrent v (id 0 0) (id 1 0));
  Alcotest.(check bool) "recv after init of receiver" true (hb (id 1 0) (id 1 1))

let test_causal_past () =
  let v = mk_message_view () in
  let past = Hb.causal_past v { proc = 1; seq = 1 } in
  Alcotest.(check int) "whole view is the past of the recv" 4
    (List.length past);
  (* topological: each event's deps appear earlier *)
  let seen = Event.Id_tbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      (match Event.prev_id e with
      | Some p -> Alcotest.(check bool) "prev first" true (Event.Id_tbl.mem seen p)
      | None -> ());
      (match e.kind with
      | Event.Recv { send; _ } ->
        Alcotest.(check bool) "send first" true (Event.Id_tbl.mem seen send)
      | _ -> ());
      Event.Id_tbl.replace seen e.id ())
    past;
  let past0 = Hb.causal_past v { proc = 0; seq = 0 } in
  Alcotest.(check int) "init's past is itself" 1 (List.length past0)

let test_merge_batch () =
  let v = View.create ~n_procs:3 in
  View.add v (init 2 0);
  (* deliberately shuffled batch; includes an event already known *)
  let batch =
    [
      recv_ev 1 1 7 ~msg:1 ~src:0 ~send_seq:1;
      init 2 0;
      send_ev 0 1 4 ~msg:1 ~dst:1;
      init 1 0;
      init 0 0;
    ]
  in
  let added = View.merge_batch v batch in
  Alcotest.(check int) "four fresh events" 4 (List.length added);
  Alcotest.(check int) "view size" 5 (View.size v);
  Alcotest.(check bool) "recv present" true (View.mem v { proc = 1; seq = 1 });
  (* merging again is a no-op *)
  let added2 = View.merge_batch v batch in
  Alcotest.(check int) "idempotent" 0 (List.length added2)

let test_merge_batch_not_closed () =
  let v = View.create ~n_procs:2 in
  View.add v (init 0 0);
  (* receive without its send anywhere *)
  let batch = [ init 1 0; recv_ev 1 1 7 ~msg:1 ~src:0 ~send_seq:1 ] in
  Alcotest.check_raises "not causally closed"
    (Invalid_argument "View.topo_sort_batch: p1#1 depends on unknown p0#1")
    (fun () -> ignore (View.merge_batch v batch))

let test_recv_of_msg () =
  let v = mk_message_view () in
  (match View.recv_of_msg v 1 with
  | Some id -> Alcotest.(check int) "recv proc" 1 id.proc
  | None -> Alcotest.fail "expected recv");
  Alcotest.(check bool) "unknown msg" true (View.recv_of_msg v 42 = None)

(* Property: random causally-consistent interleavings merge cleanly and
   liveness counts match the definition recomputed from scratch. *)
let prop_random_interleavings =
  QCheck.Test.make ~name:"view: random interleavings keep liveness consistent"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 5 40) (int_range 0 5))
    (fun choices ->
      let n = 3 in
      let v = View.create ~n_procs:n in
      for p = 0 to n - 1 do
        View.add v (init p 0)
      done;
      let seqs = Array.make n 0 in
      let lts = Array.make n 0 in
      let msg = ref 0 in
      let pending = ref [] in
      List.iter
        (fun c ->
          let p = c mod n in
          seqs.(p) <- seqs.(p) + 1;
          lts.(p) <- lts.(p) + 1;
          if c < 3 then begin
            (* send from p to (p+1) mod n *)
            incr msg;
            let dst = (p + 1) mod n in
            View.add v (send_ev p seqs.(p) lts.(p) ~msg:!msg ~dst);
            pending := (!msg, p, seqs.(p), dst) :: !pending
          end
          else begin
            (* deliver oldest pending message to p when one targets p *)
            match
              List.rev !pending
              |> List.find_opt (fun (_, _, _, dst) -> dst = p)
            with
            | Some (m, src, send_seq, _) ->
              pending := List.filter (fun (m', _, _, _) -> m' <> m) !pending;
              View.add v (recv_ev p seqs.(p) lts.(p) ~msg:m ~src ~send_seq)
            | None -> View.add v (ev p seqs.(p) lts.(p))
          end)
        choices;
      (* recompute liveness from scratch and compare *)
      let recomputed =
        View.fold v ~init:0 ~f:(fun acc e ->
            let is_last =
              match View.last_of v (Event.loc e) with
              | Some l -> Event.id_equal l.id e.id
              | None -> false
            in
            let pending_send =
              Event.is_send e
              &&
              match Event.sent_msg e with
              | Some m -> View.recv_of_msg v m = None
              | None -> false
            in
            if is_last || pending_send then acc + 1 else acc)
      in
      List.length (View.live_points v) = recomputed)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "event"
    [
      ( "event",
        [ Alcotest.test_case "basics" `Quick test_event_basics ] );
      ( "view",
        [
          Alcotest.test_case "add and lookup" `Quick test_view_add_and_lookup;
          Alcotest.test_case "validation" `Quick test_view_validation;
          Alcotest.test_case "liveness (Definition 3.1)" `Quick test_liveness;
          Alcotest.test_case "recv_of_msg" `Quick test_recv_of_msg;
          Alcotest.test_case "merge batch" `Quick test_merge_batch;
          Alcotest.test_case "merge rejects non-closed batch" `Quick
            test_merge_batch_not_closed;
        ] );
      ( "happened-before",
        [
          Alcotest.test_case "relation" `Quick test_happened_before;
          Alcotest.test_case "causal past" `Quick test_causal_past;
        ] );
      qsuite "props" [ prop_random_interleavings ];
    ]
