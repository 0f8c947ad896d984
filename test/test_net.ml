(* Net runtime tests — all on the deterministic loopback fabric and pure
   frame bytes: no real sockets, no wall clock, bit-for-bit repeatable. *)

let ms = Scenario.ms

(* --- frame codec ------------------------------------------------------ *)

let body_equal (a : Frame.body) (b : Frame.body) =
  match (a, b) with
  | Frame.Hello x, Frame.Hello y -> x.nodes = y.nodes && x.digest = y.digest
  | Frame.Hello_ack x, Frame.Hello_ack y ->
    x.nodes = y.nodes && x.digest = y.digest
  | Frame.Data x, Frame.Data y ->
    x.msg = y.msg && x.dst = y.dst && x.lost = y.lost
    && String.equal
         (Codec.string_of_slice x.payload)
         (Codec.string_of_slice y.payload)
  | Frame.Ack x, Frame.Ack y -> x.msg = y.msg
  | Frame.Bye, Frame.Bye -> true
  | _ -> false

let arbitrary_frame =
  let open QCheck in
  let gen =
    Gen.(
      let* sender = int_range 0 200 in
      let* body =
        oneof
          [
            (let* nodes = int_range 2 50 in
             let* digest = int_range 0 1_000_000 in
             return (Frame.Hello { nodes; digest }));
            (let* nodes = int_range 2 50 in
             let* digest = int_range 0 1_000_000 in
             return (Frame.Hello_ack { nodes; digest }));
            (let* msg = int_range 0 100_000 in
             let* dst = int_range 0 200 in
             let* lost = list_size (int_range 0 10) (int_range 0 100_000) in
             let* payload = string_size (int_range 0 300) in
             return
               (Frame.Data
                  { msg; dst; lost; payload = Codec.slice_of_string payload }));
            (let* msg = int_range 0 100_000 in
             return (Frame.Ack { msg }));
            return Frame.Bye;
          ]
      in
      return { Frame.sender; body })
  in
  QCheck.make
    ~print:(fun f ->
      Printf.sprintf "{sender=%d; kind=%s}" f.Frame.sender
        (Frame.kind_label f.Frame.body))
    gen

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: decode (encode f) = Ok f" ~count:500
    arbitrary_frame (fun f ->
      match Frame.decode (Frame.encode f) with
      | Ok g -> g.Frame.sender = f.Frame.sender && body_equal g.body f.body
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let sample_frame () =
  Frame.encode
    {
      Frame.sender = 3;
      body =
        Frame.Data
          {
            msg = 17;
            dst = 0;
            lost = [ 4; 9 ];
            payload = Codec.slice_of_string "payload-bytes";
          };
    }

(* Frame v2 carries payload timestamps as zigzag varints of ticks; a
   v1 frame (two-bigint timestamps), checksum and all intact, is refused
   by its version byte, and no reader for it is kept. *)
let test_frame_old_version () =
  let good = sample_frame () in
  Alcotest.(check int) "current version" 2 (Char.code good.[0]);
  let buf = Buffer.create (String.length good) in
  Buffer.add_char buf '\001';
  Buffer.add_string buf (String.sub good 1 (String.length good - 5));
  Wire.add_trailer buf;
  match Frame.decode (Buffer.contents buf) with
  | Error e -> Alcotest.(check string) "refused" "unsupported version 1" e
  | Ok _ -> Alcotest.fail "a version-1 frame was accepted"

let test_frame_truncations () =
  let good = sample_frame () in
  for len = 0 to String.length good - 1 do
    match Frame.decode (String.sub good 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes accepted" len
  done

let test_frame_bitflips () =
  (* FNV-1a over the whole frame: any single-bit corruption — header,
     body, or the checksum itself — must surface as a decode error *)
  let good = sample_frame () in
  for i = 0 to String.length good - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code good.[i] lxor (1 lsl bit)));
      match Frame.decode (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit %d of byte %d flipped, still accepted" bit i
    done
  done

let test_frame_junk () =
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    let len = Rng.int rng 80 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    match Frame.decode s with
    | Error _ | Ok _ -> ()
    | exception e ->
      Alcotest.failf "decode raised %s" (Printexc.to_string e)
  done;
  match Frame.decode (sample_frame () ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_frame_decode_sub () =
  (* the zero-copy entry point: a frame parked mid-buffer decodes
     identically, and the Data payload is a borrowed window into that
     very buffer, not a copy *)
  let wire = sample_frame () in
  let pos = 11 in
  let buf = Bytes.make (pos + String.length wire + 7) '\xAA' in
  Bytes.blit_string wire 0 buf pos (String.length wire);
  (match Frame.decode_sub buf ~pos ~len:(String.length wire) with
  | Error e -> Alcotest.failf "decode_sub rejected a good frame: %s" e
  | Ok { Frame.sender; body = Frame.Data d } ->
    Alcotest.(check int) "sender" 3 sender;
    Alcotest.(check int) "msg" 17 d.msg;
    Alcotest.(check string) "payload bytes" "payload-bytes"
      (Codec.string_of_slice d.payload);
    Alcotest.(check bool) "payload borrows the receive buffer" true
      (d.payload.Codec.bytes == buf)
  | Ok _ -> Alcotest.fail "decoded to the wrong body");
  (* out-of-range windows are an error, never an exception *)
  List.iter
    (fun (pos, len) ->
      match Frame.decode_sub buf ~pos ~len with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad window pos=%d len=%d accepted" pos len)
    [ (-1, 10); (0, Bytes.length buf + 1); (Bytes.length buf, 8); (5, -3) ]

(* --- loopback session helpers ----------------------------------------- *)

let star_spec n =
  System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (ms 1) (ms 5))
    ~links:(Topology.star n)

let test_cfg ~me ~spec ~lossy =
  {
    (Session.default_config ~me ~spec) with
    Session.lossy;
    heartbeat = ms 200;
    announce_base = ms 100;
    announce_cap = ms 1600;
    ack_timeout = ms 500;
    peer_timeout = Q.of_int 2;
  }

(* a 3-node star over the fabric: returns (fabric, loops, metrics) *)
let make_star ?(loss = 0.) ?(seed = 11) ?(cfg = Fun.id) ~lossy n =
  let spec = star_spec n in
  let fab = Loopback.fabric ~seed ~loss ~delay_lo:(ms 1) ~delay_hi:(ms 5) () in
  let metrics = Metrics.create () in
  let sink = Metrics.sink metrics in
  let loops =
    List.init n (fun i ->
        let ep =
          (* peers start offset and (within spec) skewed; the source is
             the truth: local time = virtual time *)
          if i = 0 then Loopback.endpoint fab ~id:0 ()
          else
            Loopback.endpoint fab ~id:i
              ~offset:(ms (17 * i))
              ~rate:(Q.add Q.one (Q.of_ints (if i mod 2 = 0 then 50 else -50) 1_000_000))
              ()
        in
        let session =
          Session.create ~sink (cfg (test_cfg ~me:i ~spec ~lossy))
            ~now:(Loopback.Net.now ep)
        in
        Loopback.L.create ~net:ep ~session ())
  in
  (* only the peers know the reference node's address up front; the
     reference node learns peer addresses from their hellos *)
  List.iteri
    (fun i l -> if i > 0 then Loopback.L.learn l ~peer:0 0)
    loops;
  (fab, loops, metrics)

let session_of l = Loopback.L.session l
let ep_of l = Loopback.L.net l

let check_sound ~fab ~what l =
  (* the source runs offset 0 / rate 1, so virtual time IS source-clock
     truth *)
  let truth = Loopback.vnow fab in
  let est =
    Csa.estimate_at (Session.csa (session_of l))
      ~lt:(Clock.floor_ticks (Loopback.Net.now (ep_of l)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: sound at %s" what (Q.to_string truth))
    true (Interval.mem truth est);
  est

let test_loopback_convergence () =
  let fab, loops, metrics = make_star ~lossy:true 3 in
  Loopback.run fab ~loops ~until:(Q.of_int 3) ();
  List.iteri
    (fun i l ->
      let s = session_of l in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d: peer %d up" i p)
            true
            (Session.established s p))
        (Session.peer_ids s);
      let est = check_sound ~fab ~what:(Printf.sprintf "node %d" i) l in
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "node %d: finite interval" i)
          true
          (Ext.is_fin (Interval.width est)))
    loops;
  Alcotest.(check bool) "handshakes traced" true (Metrics.peer_ups metrics >= 4);
  Alcotest.(check bool) "no drops on a clean fabric" true
    (Metrics.net_drops metrics = 0);
  Alcotest.(check bool) "no retransmits without loss" true
    (Metrics.retransmits metrics = 0)

let test_loopback_soundness_over_time () =
  (* sample every node at a grid of virtual instants mid-run *)
  let fab, loops, _ = make_star ~lossy:true 3 in
  let failures = ref 0 in
  let script =
    List.concat_map
      (fun k ->
        [
          ( Q.mul_int (ms 250) k,
            fun () ->
              List.iter
                (fun l ->
                  let truth = Loopback.vnow fab in
                  let est =
                    Csa.estimate_at
                      (Session.csa (session_of l))
                      ~lt:(Clock.floor_ticks (Loopback.Net.now (ep_of l)))
                  in
                  if not (Interval.mem truth est) then incr failures)
                loops );
        ])
      (List.init 16 (fun k -> k + 1))
  in
  Loopback.run fab ~loops ~until:(Q.of_int 5) ~script ();
  Alcotest.(check int) "no unsound sample at any instant" 0 !failures

(* Timers off the tick grid (heartbeat 1/3 s, re-announce from 1/7 s):
   a session reads whole ticks, so it reports each deadline as its ceil
   tick, and the drivers wake there instead of re-polling forever at an
   instant whose floored reading never reaches the deadline.  The alarm
   turns such a spin into a failure. *)
let test_off_grid_deadlines () =
  let fab, loops, metrics =
    make_star ~lossy:true
      ~cfg:(fun c ->
        { c with Session.heartbeat = Q.of_ints 1 3; announce_base = Q.of_ints 1 7 })
      3
  in
  let spun _ = failwith "a driver spun on an off-grid deadline" in
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle spun) in
  ignore (Unix.alarm 20);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm prev)
    (fun () -> Loopback.run fab ~loops ~until:(Q.of_int 3) ());
  List.iteri
    (fun i l ->
      (match Session.next_deadline (session_of l) with
      | Some d ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d: deadline on a tick" i)
          true
          (Q.equal d (Clock.floor_tick d))
      | None -> ());
      ignore (check_sound ~fab ~what:(Printf.sprintf "node %d" i) l))
    loops;
  Alcotest.(check bool) "heartbeats flowed" true (Metrics.sends metrics > 10)

let test_loopback_lossy () =
  (* 20% loss: handshakes and data survive via backoff re-announce and
     ack-timeout retransmission, and the intervals stay sound *)
  let fab, loops, metrics = make_star ~loss:0.2 ~seed:5 ~lossy:true 3 in
  Loopback.run fab ~loops ~until:(Q.of_int 20) ();
  List.iteri
    (fun i l ->
      let s = session_of l in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d: peer %d up despite loss" i p)
            true
            (Session.established s p))
        (Session.peer_ids s);
      let est = check_sound ~fab ~what:(Printf.sprintf "lossy node %d" i) l in
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "node %d: finite despite loss" i)
          true
          (Ext.is_fin (Interval.width est)))
    loops;
  Alcotest.(check bool) "fabric dropped datagrams" true
    (Loopback.dropped fab > 0);
  Alcotest.(check bool) "losses produced retransmissions" true
    (Metrics.retransmits metrics > 0)

let test_duplicate_data_dedup () =
  (* a duplicated datagram must not create a second receive event; the
     duplicate is re-acked and dropped *)
  let spec = star_spec 2 in
  let metrics = Metrics.create () in
  let sink = Metrics.sink metrics in
  let mk me =
    Session.create ~sink ~preestablished:true
      (test_cfg ~me ~spec ~lossy:true) ~now:Q.zero
  in
  let a = mk 0 and b = mk 1 in
  Session.send_data a ~now:(ms 10) ~dst:1;
  let frames = Session.drain a in
  let data =
    match frames with
    | [ (1, bytes) ] -> bytes
    | _ -> Alcotest.fail "expected exactly one outgoing data frame"
  in
  let deliver now =
    match Frame.decode data with
    | Ok f -> Session.handle b ~now ~bytes:(String.length data) f
    | Error e -> Alcotest.failf "frame rejected: %s" e
  in
  deliver (ms 20);
  deliver (ms 30);
  Alcotest.(check int) "one receive despite duplicate" 1
    (Metrics.receives metrics);
  Alcotest.(check int) "duplicate recorded as a drop" 1
    (Metrics.net_drops metrics);
  let acks =
    List.filter
      (fun (_, bytes) ->
        match Frame.decode bytes with
        | Ok { Frame.body = Frame.Ack _; _ } -> true
        | _ -> false)
      (Session.drain b)
  in
  Alcotest.(check int) "both copies acked" 2 (List.length acks)

(* A refusal raised after the payload was integrated leaves the receive
   half-applied, so the session fail-stops as on a negative cycle.  Here
   the spec has 3 cells per tick and the sender boots at max_cell/2
   ticks: the receive's message edge leaves the lattice. *)
let test_wire_contract_fail_stop () =
  let spec =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 0)
      ~transit:(Transit.of_q (Q.of_ints 1 3000) (ms 5))
      ~links:[ (0, 1) ]
  in
  Alcotest.(check int) "3 cells per tick" 3 (System_spec.cells_per_tick spec);
  let metrics = Metrics.create () in
  let violations = ref [] in
  let sink =
    Trace.tee (Metrics.sink metrics)
      (Trace.callback (function
        | Trace.Protocol_violation { rule; _ } ->
          violations := rule :: !violations
        | _ -> ()))
  in
  let late = System_spec.q_of_ticks (System_spec.max_cell / 2) in
  let a =
    Session.create ~preestablished:true
      (test_cfg ~me:0 ~spec ~lossy:true)
      ~now:late
  in
  let b =
    Session.create ~sink ~preestablished:true
      (test_cfg ~me:1 ~spec ~lossy:true)
      ~now:Q.zero
  in
  Session.send_data a ~now:late ~dst:1;
  let data =
    match Session.drain a with
    | [ (1, bytes) ] -> bytes
    | _ -> Alcotest.fail "expected exactly one outgoing data frame"
  in
  let deliver now =
    match Frame.decode data with
    | Ok f -> Session.handle b ~now ~bytes:(String.length data) f
    | Error e -> Alcotest.failf "frame rejected: %s" e
  in
  deliver (ms 1);
  Alcotest.(check (list string)) "wire_contract violation" [ "wire_contract" ]
    !violations;
  Alcotest.(check int) "no receive" 0 (Metrics.receives metrics);
  Alcotest.(check bool) "no timer armed" true (Session.next_deadline b = None);
  Session.tick b ~now:(Q.of_int 5);
  deliver (Q.of_int 6);
  Alcotest.(check (list (Alcotest.pair Alcotest.int Alcotest.string)))
    "no further frames" [] (Session.drain b);
  Alcotest.(check int) "later frames dropped" 2 (Metrics.net_drops metrics)

let test_non_neighbor_rejected () =
  let spec = star_spec 3 in
  (* node 1 and node 2 are not neighbors in a star *)
  let s =
    Session.create ~preestablished:true
      (test_cfg ~me:1 ~spec ~lossy:false) ~now:Q.zero
  in
  Alcotest.(check bool) "2 is not 1's peer" false (Session.is_peer s 2);
  (* a frame claiming to come from the source with a mismatched digest
     is refused: no state change, no reply *)
  let evil =
    { Frame.sender = 0; body = Frame.Hello { nodes = 7; digest = 1234 } }
  in
  Session.handle s ~now:(ms 1) ~bytes:0 evil;
  Alcotest.(check (list (Alcotest.pair Alcotest.int Alcotest.string)))
    "no reply to a mismatched hello" [] (Session.drain s)

(* --- equivalence with the simulator (the tentpole property) ----------- *)

(* One drift-free, fixed-delay, loss-free execution played twice: once
   through [Engine.run_nodes] (the simulator's heap scheduler) and once
   through real [Session]/[Loop] instances over the loopback fabric.
   Message ids, event ids, live sets, pairwise oracle distances and the
   final optimal intervals must agree exactly — the socket runtime is
   the simulator's protocol stack, not a reimplementation of it. *)

let delay = ms 5
let step = ms 10

let run_engine ~n ~sends ~duration =
  let spec =
    System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 0)
      ~transit:(Transit.of_q delay delay) ~links:(Topology.star n)
  in
  let script =
    List.mapi (fun i (src, dst) -> (Q.mul_int step (i + 1), src, dst)) sends
  in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Script { sends = script })) with
      Scenario.duration;
      clock_policy = `Fixed Q.one;
      max_offset = Q.zero;
      delay = `Min;
      loss_prob = 0.;
    }
  in
  snd (Engine.run_nodes scenario)

let run_loopback ~n ~sends ~duration =
  let spec =
    System_spec.uniform ~n ~source:0 ~drift:(Drift.of_ppm 0)
      ~transit:(Transit.of_q delay delay) ~links:(Topology.star n)
  in
  let fab = Loopback.fabric ~delay_lo:delay ~delay_hi:delay () in
  (* mirror the engine's globally sequential message ids *)
  let ctr = ref 0 in
  let alloc () =
    let v = !ctr in
    incr ctr;
    v
  in
  let big = Q.of_int 1_000_000 in
  let loops =
    List.init n (fun i ->
        let ep = Loopback.endpoint fab ~id:i () in
        let cfg =
          {
            (Session.default_config ~me:i ~spec) with
            Session.lossy = false;
            heartbeat = big;
            announce_base = big;
            announce_cap = big;
            ack_timeout = big;
            peer_timeout = big;
          }
        in
        let session =
          Session.create ~alloc_msg:alloc ~preestablished:true cfg
            ~now:Q.zero
        in
        Loopback.L.create ~net:ep ~session ())
  in
  let arr = Array.of_list loops in
  List.iter
    (fun l ->
      List.iter
        (fun p -> Loopback.L.learn l ~peer:p p)
        (Session.peer_ids (session_of l)))
    loops;
  let script =
    List.mapi
      (fun i (src, dst) ->
        ( Q.mul_int step (i + 1),
          fun () ->
            let l = arr.(src) in
            Session.send_data (session_of l)
              ~now:(Loopback.Net.now (ep_of l))
              ~dst ))
      sends
  in
  Loopback.run fab ~loops ~until:duration ~script ();
  Array.map (fun l -> Session.csa (session_of l)) arr

let same_csa_state i (sim : Csa.t) (net : Csa.t) =
  let ids c =
    List.sort compare
      (List.map (fun (e : Event.id) -> (e.proc, e.seq)) (Csa.live_event_ids c))
  in
  let live_sim = ids sim and live_net = ids net in
  if live_sim <> live_net then
    QCheck.Test.fail_reportf "node %d: live sets differ" i;
  let live = Csa.live_event_ids sim in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (Ext.equal (Csa.dist_between sim a b) (Csa.dist_between net a b))
          then QCheck.Test.fail_reportf "node %d: distances differ" i)
        live)
    live;
  true

let arbitrary_execution =
  let open QCheck in
  let gen =
    Gen.(
      let* n = int_range 2 4 in
      let* sends =
        list_size (int_range 1 25)
          (let* peer = int_range 1 (n - 1) in
           let* toward_source = bool in
           return (if toward_source then (peer, 0) else (0, peer)))
      in
      return (n, sends))
  in
  make
    ~print:(fun (n, sends) ->
      Printf.sprintf "n=%d sends=[%s]" n
        (String.concat ";"
           (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) sends)))
    gen

let prop_loopback_equals_engine =
  QCheck.Test.make
    ~name:"loopback session = simulator on the same execution" ~count:30
    arbitrary_execution (fun (n, sends) ->
      let duration = Q.add (Q.mul_int step (List.length sends + 1)) (ms 100) in
      let sim_nodes = run_engine ~n ~sends ~duration in
      let net_nodes = run_loopback ~n ~sends ~duration in
      Array.iteri
        (fun i (node : Node_rt.t) ->
          let sim = node.Node_rt.csa and net = net_nodes.(i) in
          ignore (same_csa_state i sim net);
          let est_sim = Csa.estimate_at sim ~lt:(Clock.floor_ticks duration) in
          let est_net = Csa.estimate_at net ~lt:(Clock.floor_ticks duration) in
          if not (Interval.equal est_sim est_net) then
            QCheck.Test.fail_reportf
              "node %d: intervals differ: sim %s vs net %s" i
              (Interval.to_string est_sim)
              (Interval.to_string est_net))
        sim_nodes;
      true)

(* a pinned instance of the property, so a plain alcotest failure names
   it even if the qcheck harness is filtered out *)
let test_equivalence_pinned () =
  let n = 3 in
  let sends = [ (1, 0); (0, 2); (2, 0); (0, 1); (1, 0); (2, 0) ] in
  let duration = Q.add (Q.mul_int step (List.length sends + 1)) (ms 100) in
  let sim_nodes = run_engine ~n ~sends ~duration in
  let net_nodes = run_loopback ~n ~sends ~duration in
  Array.iteri
    (fun i (node : Node_rt.t) ->
      let sim = node.Node_rt.csa and net = net_nodes.(i) in
      ignore (same_csa_state i sim net);
      Alcotest.(check int)
        (Printf.sprintf "node %d: same last event time" i)
        (Csa.last_lt sim) (Csa.last_lt net);
      Alcotest.(check bool)
        (Printf.sprintf "node %d: same interval" i)
        true
        (Interval.equal
           (Csa.estimate_at sim ~lt:(Clock.floor_ticks duration))
           (Csa.estimate_at net ~lt:(Clock.floor_ticks duration))))
    sim_nodes

(* ---- stat server: the --stat-port live exposition endpoint ---- *)

let recv_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let test_stat_server () =
  let m = Metrics.create () in
  Metrics.on_event m
    (Trace.Send { t = 1.; src = 0; dst = 1; msg = 1; events = 2; bytes = 40 });
  let srv = Stat_server.create ~port:0 ~render:(fun () -> Expo.render m) () in
  Alcotest.(check bool) "ephemeral port bound" true (Stat_server.port srv > 0);
  (* no client waiting: poll must return immediately and harmlessly *)
  Stat_server.poll srv;
  let fetch () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Stat_server.port srv));
    let req = "GET /metrics HTTP/1.0\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req));
    Stat_server.poll srv;
    let resp = recv_all fd in
    Unix.close fd;
    resp
  in
  let resp = fetch () in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length resp && (String.sub resp i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "status line" true (has "HTTP/1.0 200 OK");
  Alcotest.(check bool) "prometheus content type" true
    (has "Content-Type: text/plain; version=0.0.4");
  Alcotest.(check bool) "live counter" true (has "csync_sends_total 1");
  (* the render is re-evaluated per request: bump a counter, re-fetch *)
  Metrics.on_event m
    (Trace.Send { t = 2.; src = 0; dst = 1; msg = 2; events = 1; bytes = 30 });
  let resp2 = fetch () in
  Alcotest.(check bool) "second request sees the update" true
    (let sub = "csync_sends_total 2" in
     let n = String.length sub in
     let rec go i =
       i + n <= String.length resp2
       && (String.sub resp2 i n = sub || go (i + 1))
     in
     go 0);
  Stat_server.close srv

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "truncations rejected" `Quick
            test_frame_truncations;
          Alcotest.test_case "version-1 frame refused" `Quick
            test_frame_old_version;
          Alcotest.test_case "every bit flip rejected" `Quick
            test_frame_bitflips;
          Alcotest.test_case "junk and trailing bytes rejected" `Quick
            test_frame_junk;
          Alcotest.test_case "decode_sub: mid-buffer, borrowed payload" `Quick
            test_frame_decode_sub;
        ] );
      ( "session",
        [
          Alcotest.test_case "3-node convergence over loopback" `Quick
            test_loopback_convergence;
          Alcotest.test_case "sound at every sampled instant" `Quick
            test_loopback_soundness_over_time;
          Alcotest.test_case "20% loss: re-announce and retransmit" `Quick
            test_loopback_lossy;
          Alcotest.test_case "off-grid deadlines never spin" `Quick
            test_off_grid_deadlines;
          Alcotest.test_case "duplicate data deduplicated" `Quick
            test_duplicate_data_dedup;
          Alcotest.test_case "non-neighbor and bad digest rejected" `Quick
            test_non_neighbor_rejected;
          Alcotest.test_case "off-lattice receive fail-stops" `Quick
            test_wire_contract_fail_stop;
        ] );
      ( "stats",
        [ Alcotest.test_case "live exposition endpoint" `Quick
            test_stat_server ] );
      qsuite "props" [ prop_frame_roundtrip; prop_loopback_equals_engine ];
      ( "pinned",
        [
          Alcotest.test_case "loopback = engine (pinned execution)" `Quick
            test_equivalence_pinned;
        ] );
    ]
