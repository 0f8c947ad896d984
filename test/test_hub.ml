(* Hub tests — cohort sharding, batching/coalescing accounting, and the
   load generator, all on the deterministic loopback fabric.  The
   centerpiece is the equivalence property: a hub serving K clients
   gives every client the exact interval trajectory it would get from
   its own private reference node — cohort sharing is invisible not
   just on the wire but in the estimates. *)

let ms = Scenario.ms
let q_one = Q.one

let star_spec ~nodes = Swarm.star_spec ~nodes ~drift_ppm:300 ~hi_ms:50

type client_clock = { g : int; offset : Q.t; rate : Q.t }

let mk_cfg ~spec ~me ~heartbeat =
  { (Session.default_config ~me ~spec) with Session.heartbeat }

(* one client against its own private reference node: the baseline
   trajectory.  Fixed transit delay and no loss make the fabric
   deterministic without consulting its RNG, so the hub world below
   sees identical packet timings. *)
let pair_trajectory ~spec ~delay ~heartbeat ~samples cc =
  let fab = Loopback.fabric ~seed:1 ~delay_lo:delay ~delay_hi:delay () in
  let sep = Loopback.endpoint fab ~id:0 () in
  let cep = Loopback.endpoint fab ~id:cc.g ~offset:cc.offset ~rate:cc.rate () in
  let ssess =
    Session.create (mk_cfg ~spec ~me:0 ~heartbeat) ~now:(Loopback.Net.now sep)
  in
  let csess =
    Session.create (mk_cfg ~spec ~me:cc.g ~heartbeat)
      ~now:(Loopback.Net.now cep)
  in
  let sloop = Loopback.L.create ~net:sep ~session:ssess () in
  let cloop = Loopback.L.create ~net:cep ~session:csess () in
  Loopback.L.learn cloop ~peer:0 0;
  let out = ref [] in
  let script =
    List.map
      (fun vt ->
        ( vt,
          fun () ->
            out :=
              Session.sample csess ~now:(Loopback.Net.now cep) () :: !out ))
      samples
  in
  let until = Q.add (List.fold_left Q.max Q.zero samples) (ms 1) in
  Loopback.run fab ~loops:[ sloop; cloop ] ~until ~script ();
  List.rev !out

(* the same clients behind one hub, sharded into cohorts *)
let hub_trajectories ~spec ~cohort ~delay ~heartbeat ~samples ccs =
  let fab = Loopback.fabric ~seed:1 ~delay_lo:delay ~delay_hi:delay () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:cohort
        ~mk_session:(fun ~idx:_ ~members ->
          Ok
            (Session.create ~peers:members cfg0
               ~now:(Loopback.Net.now hub_ep)))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "hub create: %s" m
  in
  let clients =
    List.map
      (fun cc ->
        let ep =
          Loopback.endpoint fab ~id:cc.g ~offset:cc.offset ~rate:cc.rate ()
        in
        let session =
          Session.create
            (mk_cfg ~spec ~me:cc.g ~heartbeat)
            ~now:(Loopback.Net.now ep)
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (cc, ep, session, loop, ref []))
      ccs
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, _, _, loop, _) -> Loopback.driver_of_loop loop)
         clients
  in
  let script =
    List.map
      (fun vt ->
        ( vt,
          fun () ->
            List.iter
              (fun (_, ep, session, _, out) ->
                out :=
                  Session.sample session ~now:(Loopback.Net.now ep) ()
                  :: !out)
              clients ))
      samples
  in
  let until = Q.add (List.fold_left Q.max Q.zero samples) (ms 1) in
  Loopback.run_drivers fab ~drivers ~until ~script ();
  (hub, List.map (fun (cc, _, _, _, out) -> (cc.g, List.rev !out)) clients)

let check_equal_trajectories ~what pair hubbed =
  List.iteri
    (fun i (p, h) ->
      if not (Interval.equal p h) then
        Alcotest.failf "%s: sample %d differs: pair %s, hub %s" what i
          (Interval.to_string p) (Interval.to_string h))
    (List.combine pair hubbed)

let default_clients =
  [
    { g = 1; offset = ms 40; rate = Q.add Q.one (Q.of_ints 120 1_000_000) };
    { g = 2; offset = ms 0; rate = Q.sub Q.one (Q.of_ints 250 1_000_000) };
    { g = 3; offset = ms 210; rate = Q.one };
    { g = 4; offset = ms 999; rate = Q.add Q.one (Q.of_ints 7 1_000_000) };
    { g = 5; offset = ms 3; rate = Q.sub Q.one (Q.of_ints 300 1_000_000) };
  ]

let samples_1_to_8 = List.init 8 (fun k -> Q.of_int (k + 1))

let test_hub_equals_pairs () =
  let nodes = List.length default_clients + 1 in
  let spec = star_spec ~nodes in
  let delay = ms 10 and heartbeat = Q.of_ints 1 2 in
  List.iter
    (fun cohort ->
      let _, hub_trajs =
        hub_trajectories ~spec ~cohort ~delay ~heartbeat
          ~samples:samples_1_to_8 default_clients
      in
      List.iter
        (fun cc ->
          let pair =
            pair_trajectory ~spec ~delay ~heartbeat ~samples:samples_1_to_8
              cc
          in
          let hubbed = List.assoc cc.g hub_trajs in
          check_equal_trajectories
            ~what:(Printf.sprintf "cohort=%d client %d" cohort cc.g)
            pair hubbed)
        default_clients)
    [ 1; 2; 5 ]

(* the same property under QCheck-randomized clocks, delays, cadences
   and cohort sizes *)
let prop_hub_equals_pairs =
  let open QCheck in
  let gen =
    Gen.(
      let* k = int_range 2 6 in
      let* cohort = int_range 1 4 in
      let* delay_ms = int_range 2 40 in
      let* hb_ms = int_range 200 900 in
      let* clocks =
        flatten_l
          (List.init k (fun i ->
               let* off = int_range 0 800 in
               let* ppm = int_range (-300) 300 in
               return
                 {
                   g = i + 1;
                   offset = Scenario.ms off;
                   rate = Q.add Q.one (Q.of_ints ppm 1_000_000);
                 }))
      in
      return (k, cohort, delay_ms, hb_ms, clocks))
  in
  let print (k, cohort, delay_ms, hb_ms, _) =
    Printf.sprintf "k=%d cohort=%d delay=%dms hb=%dms" k cohort delay_ms
      hb_ms
  in
  QCheck.Test.make ~count:12
    ~name:"hub: K clients == K private serve/peer pairs"
    (QCheck.make ~print gen)
    (fun (k, cohort, delay_ms, hb_ms, clocks) ->
      let spec = star_spec ~nodes:(k + 1) in
      let delay = ms delay_ms in
      let heartbeat = Q.of_ints hb_ms 1000 in
      let samples = List.init 6 (fun i -> Q.of_int (i + 1)) in
      let _, hub_trajs =
        hub_trajectories ~spec ~cohort ~delay ~heartbeat ~samples clocks
      in
      List.for_all
        (fun cc ->
          let pair = pair_trajectory ~spec ~delay ~heartbeat ~samples cc in
          List.for_all2 Interval.equal pair (List.assoc cc.g hub_trajs))
        clocks)

(* --- cohort sharding -------------------------------------------------- *)

let test_cohort_partition () =
  let spec = star_spec ~nodes:11 in
  let fab = Loopback.fabric ~delay_lo:(ms 1) ~delay_hi:(ms 2) () in
  let ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let mk ~idx:_ ~members =
    Ok (Session.create ~peers:members cfg0 ~now:Q.zero)
  in
  let hub =
    match
      Swarm.Lhub.create ~net:ep ~spec ~cohort_size:4 ~mk_session:mk ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  Alcotest.(check int) "cohorts" 3 (Swarm.Lhub.cohorts hub);
  Alcotest.(check int) "clients" 10 (Swarm.Lhub.clients hub);
  Alcotest.(check (list int)) "cohort 0" [ 1; 2; 3; 4 ]
    (Swarm.Lhub.members hub 0);
  Alcotest.(check (list int)) "cohort 1" [ 5; 6; 7; 8 ]
    (Swarm.Lhub.members hub 1);
  Alcotest.(check (list int)) "cohort 2" [ 9; 10 ] (Swarm.Lhub.members hub 2);
  (* the cohort sessions see exactly their members *)
  Alcotest.(check (list int)) "session 1 peers" [ 5; 6; 7; 8 ]
    (Session.peer_ids (Swarm.Lhub.session hub 1));
  Alcotest.(check bool) "sharded digests match a whole node's" true
    (Session.config_digest cfg0
    = Session.config_digest (mk_cfg ~spec ~me:0 ~heartbeat:q_one))

let test_peers_subset_validated () =
  let spec = star_spec ~nodes:4 in
  let cfg = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  (match Session.create ~peers:[ 1; 7 ] cfg ~now:Q.zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-neighbor subset accepted");
  let s = Session.create ~peers:[ 2 ] cfg ~now:Q.zero in
  Alcotest.(check (list int)) "subset peers" [ 2 ] (Session.peer_ids s);
  Alcotest.(check bool) "non-member not a peer" false (Session.is_peer s 1)

(* A cohort session's history keeps a frontier per member only.  With
   one per spec neighbor, the never-contacted non-members pinned every
   event in H for good: H, and the scan of it on every send, grew with
   uptime. *)
let test_cohort_history_bounded () =
  let peak_history ~until =
    let spec = star_spec ~nodes:5 in
    let fab = Loopback.fabric ~seed:7 ~delay_lo:(ms 1) ~delay_hi:(ms 40) () in
    let hub_ep = Loopback.endpoint fab ~id:0 () in
    let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:(Q.of_ints 1 2) in
    let hub =
      match
        Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:2
          ~mk_session:(fun ~idx:_ ~members ->
            Ok (Session.create ~peers:members cfg0 ~now:Q.zero))
          ()
      with
      | Ok h -> h
      | Error m -> Alcotest.failf "create: %s" m
    in
    let loops =
      List.init 4 (fun i ->
          let ep = Loopback.endpoint fab ~id:(i + 1) () in
          let s =
            Session.create
              (mk_cfg ~spec ~me:(i + 1) ~heartbeat:(Q.of_ints 1 2))
              ~now:Q.zero
          in
          let l = Loopback.L.create ~net:ep ~session:s () in
          Loopback.L.learn l ~peer:0 0;
          l)
    in
    let drivers =
      {
        Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
        next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
        addr = Some 0;
      }
      :: List.map Loopback.driver_of_loop loops
    in
    Loopback.run_drivers fab ~drivers ~until:(Q.of_int until) ();
    List.fold_left max 0
      (List.init (Swarm.Lhub.cohorts hub) (fun i ->
           Csa.peak_history_size (Session.csa (Swarm.Lhub.session hub i))))
  in
  (* linear growth would make the 40 s peak about 4x the 10 s one *)
  let short = peak_history ~until:10 and long = peak_history ~until:40 in
  if long * 4 > short * 5 then
    Alcotest.failf "cohort history grows with uptime: peak %d at 10 s, %d at 40 s"
      short long

(* Per-cohort checkpoints are keyed by cohort index: a hub restarted
   with another cohort size would hand cohort i's state to other
   clients.  Restore refuses a snapshot whose members differ. *)
let test_restore_refuses_other_members () =
  let spec = star_spec ~nodes:5 in
  let cfg = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let blob =
    Session.snapshot (Session.create ~peers:[ 1; 2 ] cfg ~now:Q.zero)
  in
  (match Session.restore ~peers:[ 1; 2; 3; 4 ] cfg ~now:(ms 5) blob with
  | Ok _ -> Alcotest.fail "restored a [1;2] snapshot for [1;2;3;4]"
  | Error m ->
    Alcotest.(check string)
      "names both lists"
      "Session.restore: snapshot peers [1;2] differ from requested peers \
       [1;2;3;4]"
      m);
  match Session.restore ~peers:[ 2; 1 ] cfg ~now:(ms 5) blob with
  | Ok s -> Alcotest.(check (list int)) "members" [ 1; 2 ]
              (List.sort compare (Session.peer_ids s))
  | Error m -> Alcotest.failf "same members refused: %s" m

(* A client whose clock runs 5% fast against a 300 ppm spec sends
   timestamps that cannot all be true: the AGDP structure finds a
   negative cycle.  The hub refuses such a payload as a spec violation
   and keeps serving everyone else. *)
let test_spec_violating_client () =
  let spec = star_spec ~nodes:3 in
  let fab = Loopback.fabric ~seed:1 ~delay_lo:(ms 5) ~delay_hi:(ms 5) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let violations = ref [] in
  let sink =
    Trace.callback (function
      | Trace.Protocol_violation { rule; _ } -> violations := rule :: !violations
      | _ -> ())
  in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let hub =
    match
      Swarm.Lhub.create ~sink ~net:hub_ep ~spec ~cohort_size:1
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~sink ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let client g rate =
    let ep = Loopback.endpoint fab ~id:g ~rate () in
    let session =
      Session.create (mk_cfg ~spec ~me:g ~heartbeat:q_one)
        ~now:(Loopback.Net.now ep)
    in
    let loop = Loopback.L.create ~net:ep ~session () in
    Loopback.L.learn loop ~peer:0 0;
    (ep, session, loop)
  in
  let honest_ep, honest, honest_loop = client 1 Q.one in
  let _, _, fast_loop = client 2 (Q.of_ints 105 100) in
  let drivers =
    [
      {
        Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
        next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
        addr = Some 0;
      };
      Loopback.driver_of_loop honest_loop;
      Loopback.driver_of_loop fast_loop;
    ]
  in
  (* the hub runs offset 0 / rate 1: virtual time is the source's *)
  let missed = ref 0 and last = ref Interval.full in
  let script =
    List.init 10 (fun k ->
        ( Q.of_int (k + 1),
          fun () ->
            last := Session.sample honest ~now:(Loopback.Net.now honest_ep) ();
            if not (Interval.mem (Loopback.vnow fab) !last) then incr missed ))
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 10) ~script ();
  Alcotest.(check bool)
    "spec violation traced" true
    (List.mem "spec_violation" !violations);
  Alcotest.(check bool) "honest client established" true
    (Session.established honest 0);
  Alcotest.(check int) "honest samples contained" 0 !missed;
  Alcotest.(check bool) "honest client converged" true
    (Ext.is_fin (Interval.width !last))

(* --- batching / coalescing accounting -------------------------------- *)

(* a tickful of same-destination frames must leave in one flush and be
   counted; frames to distinct clients must not be *)
let test_coalescing_accounting () =
  let clients =
    [
      { g = 1; offset = Q.zero; rate = Q.one };
      { g = 2; offset = Q.zero; rate = Q.one };
    ]
  in
  let spec = star_spec ~nodes:3 in
  let fab = Loopback.fabric ~seed:3 ~delay_lo:(ms 5) ~delay_hi:(ms 5) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let mk_client cc =
    let ep = Loopback.endpoint fab ~id:cc.g () in
    let session =
      Session.create (mk_cfg ~spec ~me:cc.g ~heartbeat:q_one) ~now:Q.zero
    in
    let loop = Loopback.L.create ~net:ep ~session () in
    Loopback.L.learn loop ~peer:0 0;
    (session, loop)
  in
  let cls = List.map mk_client clients in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, loop) -> Loopback.driver_of_loop loop) cls
  in
  let script =
    [
      ( Q.of_int 3,
        fun () ->
          (* two data frames to client 1 queued in the same tick: the
             second must share the flush *)
          let s = Swarm.Lhub.session hub 0 in
          Session.send_data s ~now:(Loopback.vnow fab) ~dst:1;
          Session.send_data s ~now:(Loopback.vnow fab) ~dst:1 );
    ]
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 5) ~script ();
  let st = Swarm.Lhub.stats hub in
  Alcotest.(check int) "both clients up" 2 st.Hub.established;
  if st.Hub.coalesced < 1 then
    Alcotest.failf "no coalescing counted (stats: frames=%d coalesced=%d)"
      st.Hub.frames st.Hub.coalesced;
  if st.Hub.frames < 4 then
    Alcotest.failf "hub handled too few frames: %d" st.Hub.frames;
  (* the fixed delay lands both clients' frames at the same virtual
     instant, so the second one of each pair rides the burst drain *)
  if st.Hub.batched < 1 then
    Alcotest.failf "no batched frames (frames=%d)" st.Hub.frames

(* duplicate hellos: a client that re-announces (its first hello_ack
   was still in flight) must stay a single established member with a
   single peer-up, in whichever cohort owns it *)
let test_duplicate_hellos () =
  let spec = star_spec ~nodes:3 in
  let fab = Loopback.fabric ~seed:5 ~delay_lo:(ms 40) ~delay_hi:(ms 40) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let mk_cfg ~spec ~me ~heartbeat =
    { (mk_cfg ~spec ~me ~heartbeat) with Session.announce_base = ms 15 }
  in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let ups = ref [] in
  let sink =
    Trace.callback (function
      | Trace.Peer_up { peer; _ } -> ups := peer :: !ups
      | _ -> ())
  in
  let hub =
    match
      Swarm.Lhub.create ~sink ~net:hub_ep ~spec ~cohort_size:1
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~sink ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  (* announce_base is 15 ms and the round trip is 80 ms: both clients
     send further hellos before the first hello_ack can possibly
     arrive *)
  let cls =
    List.map
      (fun g ->
        let ep = Loopback.endpoint fab ~id:g () in
        let session =
          Session.create (mk_cfg ~spec ~me:g ~heartbeat:q_one) ~now:Q.zero
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (session, loop))
      [ 1; 2 ]
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, loop) -> Loopback.driver_of_loop loop) cls
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 4) ();
  let st = Swarm.Lhub.stats hub in
  Alcotest.(check int) "both established" 2 st.Hub.established;
  (* both clients came up on the hub side, and no phantom peers did *)
  Alcotest.(check (list int)) "hub-side ups" [ 1; 2 ]
    (List.sort_uniq compare !ups)

(* churn mid-run: one client says bye and leaves; the hub must mark it
   down and keep serving the others *)
let test_client_churn () =
  let spec = star_spec ~nodes:4 in
  let fab = Loopback.fabric ~seed:9 ~delay_lo:(ms 5) ~delay_hi:(ms 5) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:(Q.of_ints 1 2) in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let cls =
    List.map
      (fun g ->
        let ep = Loopback.endpoint fab ~id:g () in
        let session =
          Session.create
            (mk_cfg ~spec ~me:g ~heartbeat:(Q.of_ints 1 2))
            ~now:Q.zero
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (g, ep, session, loop))
      [ 1; 2; 3 ]
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, _, _, loop) -> Loopback.driver_of_loop loop) cls
  in
  let script =
    [
      ( Q.of_int 4,
        fun () ->
          let _, ep, session, _ =
            List.find (fun (g, _, _, _) -> g = 2) cls
          in
          Session.stop session ~now:(Loopback.Net.now ep) );
    ]
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 8) ~script ();
  let st = Swarm.Lhub.stats hub in
  Alcotest.(check int) "two still up" 2 st.Hub.established;
  Alcotest.(check bool) "client 2 down on its cohort" false
    (Session.established (Swarm.Lhub.session hub 0) 2);
  List.iter
    (fun (g, ep, session, _) ->
      if g <> 2 then begin
        let est = Session.sample session ~now:(Loopback.Net.now ep) () in
        (match Interval.width est with
        | Ext.Fin _ -> ()
        | Ext.Inf -> Alcotest.failf "client %d never converged" g);
        if not (Interval.mem (Loopback.vnow fab) est) then
          Alcotest.failf "client %d unsound after churn" g
      end)
    cls

(* --- swarm ------------------------------------------------------------ *)

let test_swarm_loopback_converges () =
  let r =
    Swarm.run_loopback ~seed:7 ~clients:40 ~cohort:8
      ~duration:(Q.of_int 10) ()
  in
  Alcotest.(check int) "all converged" 40 r.Swarm.converged;
  Alcotest.(check int) "all sound" 40 r.Swarm.sound;
  Alcotest.(check int) "all established" 40 r.Swarm.established;
  let st = Option.get r.Swarm.hub in
  if st.Hub.frames < 40 * 3 then
    Alcotest.failf "suspiciously few hub frames: %d" st.Hub.frames;
  if Float.is_nan (Swarm.p_width r 99.) then Alcotest.fail "no p99 width"

let test_swarm_deterministic () =
  let run () =
    Swarm.run_loopback ~seed:11 ~clients:12 ~cohort:3
      ~duration:(Q.of_int 6) ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "converged" a.Swarm.converged b.Swarm.converged;
  Alcotest.(check (array (float 0.)))
    "widths identical" a.Swarm.widths b.Swarm.widths;
  Alcotest.(check int) "frames identical"
    (Option.get a.Swarm.hub).Hub.frames (Option.get b.Swarm.hub).Hub.frames

(* --- wakeup scheduling ------------------------------------------------- *)

(* The whole JSONL trace of a seeded loopback swarm — hub and client
   events, hub gauges — as an event count and one digest.  A hub that
   wakes only the cohorts with work due may skip only ticks and flushes
   that would have done nothing, so it must reproduce the trace of one
   that ticks, flushes and scans every cohort on every poll, byte for
   byte: any change in what the hub sends, or when, fails these. *)
let swarm_trace ~clients ~cohort ~loss =
  let buf = Buffer.create 65536 and events = ref 0 in
  let sink =
    Trace.callback (fun ev ->
        incr events;
        Buffer.add_string buf (Json_out.to_line (Trace.json_of_event ev));
        Buffer.add_char buf '\n')
  in
  let r =
    Swarm.run_loopback ~seed:11 ~loss ~cohort ~clients
      ~duration:(Q.of_int 6) ~sink ()
  in
  Alcotest.(check int) "all sound" clients r.Swarm.sound;
  (!events, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Re-recorded when timestamps became one varint each (frame v2): the
   event counts held, and only the [bytes] of send, net_tx and net_rx
   lines moved. *)
let golden_swarm_traces =
  [
    (12, 1, 0.1, 5111, "f24f691215eae6c26d53653094fc0beb");
    (10, 4, 0.1, 7228, "4c0cbd1d5c54a4d0e206a7c1a15d2036");
    (6, 6, 0., 6706, "387ec5488fa8a3fb95e9e68a3878eff9");
  ]

let test_golden_swarm_traces () =
  List.iter
    (fun (clients, cohort, loss, events, digest) ->
      let what = Printf.sprintf "K=%d cohort=%d loss=%g" clients cohort loss in
      let n, d = swarm_trace ~clients ~cohort ~loss in
      Alcotest.(check int) (what ^ ": events") events n;
      Alcotest.(check string) (what ^ ": digest") digest d)
    golden_swarm_traces

(* What the timer heap and the dirty set stand in for, recomputed by
   scanning every cohort: the earliest session deadline, empty output
   queues after a flush, and the all-clients-done verdict. *)
let agrees_with_scan hub =
  let sessions =
    List.init (Swarm.Lhub.cohorts hub) (Swarm.Lhub.session hub)
  in
  let earliest =
    List.fold_left
      (fun acc s ->
        match (Session.next_deadline s, acc) with
        | None, a -> a
        | Some d, None -> Some d
        | Some d, Some a -> Some (Q.min a d))
      None sessions
  in
  Option.equal Q.equal earliest (Swarm.Lhub.next_deadline hub)
  && List.for_all (fun s -> Session.drain s = []) sessions
  && Swarm.Lhub.all_clients_done hub
     = List.for_all Session.all_peers_done sessions

(* Random fleets under loss, every client saying bye mid-run: after
   every hub poll the heap's deadline, the flushed queues and the
   finished count must match a full scan, and a lossless run must end
   with every client done. *)
let prop_wakeups_agree_with_scan =
  let open QCheck in
  let gen =
    Gen.(
      let* k = int_range 2 10 in
      let* cohort = int_range 1 4 in
      let* loss = oneofl [ 0.; 0.1; 0.3 ] in
      let* seed = int_range 0 1000 in
      let* stop_at = int_range 2 5 in
      return (k, cohort, loss, seed, stop_at))
  in
  let print (k, cohort, loss, seed, stop_at) =
    Printf.sprintf "k=%d cohort=%d loss=%g seed=%d stop_at=%d" k cohort loss
      seed stop_at
  in
  QCheck.Test.make ~count:20
    ~name:"hub: timer heap and dirty set agree with a full scan"
    (QCheck.make ~print gen)
    (fun (k, cohort, loss, seed, stop_at) ->
      let spec = star_spec ~nodes:(k + 1) in
      let fab =
        Loopback.fabric ~seed ~loss ~delay_lo:(ms 1) ~delay_hi:(ms 40) ()
      in
      let hub_ep = Loopback.endpoint fab ~id:0 () in
      let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:(Q.of_ints 1 2) in
      let hub =
        match
          Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:cohort
            ~mk_session:(fun ~idx:_ ~members ->
              Ok (Session.create ~peers:members cfg0 ~now:Q.zero))
            ()
        with
        | Ok h -> h
        | Error m -> Alcotest.failf "create: %s" m
      in
      let cls =
        List.init k (fun i ->
            let g = i + 1 in
            let ep = Loopback.endpoint fab ~id:g ~offset:(ms (37 * g)) () in
            let session =
              Session.create
                (mk_cfg ~spec ~me:g ~heartbeat:(Q.of_ints 1 2))
                ~now:(Loopback.Net.now ep)
            in
            let loop = Loopback.L.create ~net:ep ~session () in
            Loopback.L.learn loop ~peer:0 0;
            (ep, session, loop))
      in
      let agree = ref true and polls = ref 0 in
      let drivers =
        {
          Loopback.poll =
            (fun () ->
              Swarm.Lhub.poll hub ~max_wait:Q.zero;
              incr polls;
              if not (agrees_with_scan hub) then agree := false);
          next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
          addr = Some 0;
        }
        :: List.map (fun (_, _, loop) -> Loopback.driver_of_loop loop) cls
      in
      let script =
        [
          ( Q.of_int stop_at,
            fun () ->
              List.iter
                (fun (ep, s, _) -> Session.stop s ~now:(Loopback.Net.now ep))
                cls );
        ]
      in
      Loopback.run_drivers fab ~drivers
        ~until:(Q.of_int (stop_at + 2))
        ~script ();
      !agree && !polls > 0 && (loss > 0. || Swarm.Lhub.all_clients_done hub))

(* --- loopback ticks --------------------------------------------------- *)

(* The fabric delivers every datagram inside [send + lo, send + hi], and
   every session reads the floor tick of its endpoint's clock, so its
   AGDP runs on the charged spec's lattice.  [Rec] is a NET that observes
   every datagram of a [Swarm.run_loopback]-wired fleet on its way
   through the fabric: a send the fabric kept is in flight under
   (dst, bytes); its receive pops the oldest such send and checks the
   delay and the receiver's reading.  Identical frames in flight at once
   may pair crosswise, but a crossed pair's delays still lie between the
   two true ones, so the bounds check holds either way. *)
module Rec = struct
  let fab = ref (Loopback.fabric ~delay_lo:Q.one ~delay_hi:Q.one ())
  let ids : (Loopback.endpoint * int) list ref = ref []
  let flights : (int * string, Q.t Queue.t) Hashtbl.t = Hashtbl.create 64
  let arrivals = ref 0
  let off_tick = ref 0
  let uncontained = ref 0
  let bad = ref []
  let lo = ref Q.zero
  let hi = ref Q.zero

  let reset f ~delay_lo ~delay_hi =
    fab := f;
    lo := delay_lo;
    hi := delay_hi;
    ids := [];
    Hashtbl.reset flights;
    arrivals := 0;
    off_tick := 0;
    uncontained := 0;
    bad := []

  let on_tick lt = Q.equal (Clock.floor_tick lt) lt

  include Loopback.Net

  let send ep dst bytes =
    let lost = Loopback.dropped !fab in
    Loopback.Net.send ep dst bytes;
    if Loopback.dropped !fab = lost then begin
      let k = (dst, bytes) in
      let q =
        match Hashtbl.find_opt flights k with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace flights k q;
          q
      in
      Queue.push (Loopback.vnow !fab) q
    end

  let recv ep ~buf ~timeout =
    let r = Loopback.Net.recv ep ~buf ~timeout in
    Option.iter
      (fun (_, len) ->
        let me = List.assq ep !ids in
        let k = (me, Bytes.sub_string buf 0 len) in
        let sent = Queue.pop (Hashtbl.find flights k) in
        let d = Q.sub (Loopback.vnow !fab) sent in
        incr arrivals;
        if not (on_tick (Loopback.Net.now ep)) then incr off_tick;
        if Q.(d < !lo) || Q.(d > !hi) then
          bad := Printf.sprintf "delay %s to %d" (Q.to_string d) me :: !bad)
      r;
    r
end

module Rhub = Hub.Make (Rec)
module Rloop = Loop.Make (Rec)

(* [Swarm.run_loopback]'s wiring (spec, fabric, clock draws, driver
   order, once-a-second samples) over [Rec]: the same seed gives the
   same execution.  Returns the sessions (hub cohorts first), the final
   client widths, and the fabric's delivered and dropped counts. *)
let recorded_swarm ~seed ~loss ~cohort ~heartbeat ~clients ~duration
    ~delay_lo ~delay_hi =
  let spec = Swarm.star_spec ~nodes:(clients + 1) ~drift_ppm:500 ~hi_ms:50 in
  let fab = Loopback.fabric ~seed ~loss ~delay_lo ~delay_hi () in
  Rec.reset fab ~delay_lo ~delay_hi;
  let cfg me = mk_cfg ~spec ~me ~heartbeat in
  let endpoint ~id ?offset ?rate () =
    let ep = Loopback.endpoint fab ~id ?offset ?rate () in
    Rec.ids := (ep, id) :: !Rec.ids;
    ep
  in
  let hub_ep = endpoint ~id:0 () in
  let hub =
    match
      Rhub.create ~net:hub_ep ~spec ~cohort_size:cohort
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~peers:members (cfg 0) ~now:(Rec.now hub_ep)))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "hub create: %s" m
  in
  let rng = Rng.create (seed lxor 0x5157) in
  let cls =
    List.init clients (fun i ->
        let g = i + 1 in
        let offset = ms (Rng.int rng 251) in
        let ppm = Rng.int rng 1001 - 500 in
        let rate = Q.add Q.one (Q.of_ints ppm 1_000_000) in
        let ep = endpoint ~id:g ~offset ~rate () in
        let session = Session.create (cfg g) ~now:(Rec.now ep) in
        let loop = Rloop.create ~net:ep ~session () in
        Rloop.learn loop ~peer:0 0;
        (ep, session, loop))
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Rhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Rhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.mapi
         (fun i (ep, session, loop) ->
           {
             Loopback.poll = (fun () -> Rloop.poll loop ~max_wait:Q.zero);
             next_vt =
               (fun () ->
                 Option.map (Loopback.virtual_of_local ep)
                   (Session.next_deadline session));
             addr = Some (i + 1);
           })
         cls
  in
  let widths = Array.make clients infinity in
  let sample_all () =
    List.iteri
      (fun i (ep, session, _) ->
        let truth = Loopback.vnow fab in
        let est = Session.sample session ~now:(Rec.now ep) ~truth () in
        if not (Interval.mem truth est) then incr Rec.uncontained;
        widths.(i) <-
          (match Interval.width est with
          | Ext.Fin w -> Q.to_float w
          | Ext.Inf -> infinity))
      cls
  in
  let script = List.init duration (fun k -> (Q.of_int (k + 1), sample_all)) in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int duration) ~script ();
  sample_all ();
  ( List.init (Rhub.cohorts hub) (Rhub.session hub)
    @ List.map (fun (_, s, _) -> s) cls,
    Array.to_list widths,
    Loopback.delivered fab,
    Loopback.dropped fab )

(* A CSA's readings are ticks by type; every session's CSA runs on the
   charged spec. *)
let check_readings ~what sessions =
  List.iteri
    (fun i s ->
      let csa = Session.csa s in
      if Q.sign (System_spec.quantum (Csa.spec csa)) <= 0 then
        Alcotest.failf "%s: session %d runs on an uncharged spec" what i)
    sessions

(* Two seeded lossy fleets: one sharded like the golden traces, one the
   bench's fleet-32-lossy at K = 8. *)
let test_loopback_on_ticks ~seed ~cohort ~heartbeat ~clients ~duration
    ~delivered ~dropped () =
  let what = Printf.sprintf "seed %d K=%d cohort %d" seed clients cohort in
  let sessions, widths, dl, dr =
    recorded_swarm ~seed ~loss:0.1 ~cohort ~heartbeat ~clients ~duration
      ~delay_lo:(ms 1) ~delay_hi:(ms 50)
  in
  let swarm =
    Swarm.run_loopback ~seed ~loss:0.1 ~cohort ~heartbeat ~clients
      ~duration:(Q.of_int duration) ()
  in
  Alcotest.(check int) "same run: delivered" swarm.Swarm.fabric_delivered dl;
  Alcotest.(check (list (float 0.)))
    "same run: final widths"
    (List.map (fun (c : Swarm.client_report) -> c.last_width)
       swarm.Swarm.per_client)
    widths;
  Alcotest.(check int) "all sound" clients swarm.Swarm.sound;
  Alcotest.(check int) "delivered" delivered dl;
  Alcotest.(check int) "dropped" dropped dr;
  Alcotest.(check int) "every receive observed" dl !Rec.arrivals;
  Alcotest.(check (list string)) "delays in [lo, hi]" [] !Rec.bad;
  check_readings ~what sessions;
  Alcotest.(check int) "receives off a receiver tick" 0 !Rec.off_tick;
  Alcotest.(check int) "uncontained samples" 0 !Rec.uncontained

(* lo = hi: every arrival lands at send + lo, off the skewed clients'
   ticks, which read its floor tick like any other arrival and stay
   sound on the charged lattice *)
let test_loopback_fixed_delay_unaligned () =
  let sessions, widths, dl, _ =
    recorded_swarm ~seed:3 ~loss:0. ~cohort:1 ~heartbeat:(Q.of_ints 1 2)
      ~clients:4 ~duration:4 ~delay_lo:(ms 5) ~delay_hi:(ms 5)
  in
  Alcotest.(check int) "every receive observed" dl !Rec.arrivals;
  Alcotest.(check (list string)) "delays in [lo, hi]" [] !Rec.bad;
  Alcotest.(check int) "receives off a receiver tick" 0 !Rec.off_tick;
  List.iter
    (fun w -> if not (Float.is_finite w) then Alcotest.fail "no estimate")
    widths;
  check_readings ~what:"lo = hi" sessions;
  Alcotest.(check int) "uncontained samples" 0 !Rec.uncontained

(* --- Udp burst drain -------------------------------------------------- *)

(* the EWOULDBLOCK fix: zero-timeout receives drain an entire kernel
   burst without blocking, and report emptiness as None *)
let test_udp_burst_drain () =
  let a = Udp.create ~port:0 () in
  let b = Udp.create ~port:0 () in
  let dst = Udp.loopback (Udp.port b) in
  for i = 1 to 5 do
    Udp.send a dst (Printf.sprintf "datagram-%d" i)
  done;
  let buf = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec collect n =
    if n >= 5 || Unix.gettimeofday () > deadline then n
    else
      match Udp.recv b ~buf ~timeout:(Q.of_ints 1 10) with
      | None -> collect n
      | Some (_, _) ->
        (* drain the rest of the burst without blocking *)
        let rec drain n =
          match Udp.recv b ~buf ~timeout:Q.zero with
          | Some _ -> drain (n + 1)
          | None -> n
        in
        collect (drain (n + 1))
  in
  let got = collect 0 in
  Alcotest.(check int) "all datagrams received" 5 got;
  (* an empty queue with a zero timeout must return immediately *)
  let t0 = Unix.gettimeofday () in
  (match Udp.recv b ~buf ~timeout:Q.zero with
  | None -> ()
  | Some _ -> Alcotest.fail "phantom datagram");
  if Unix.gettimeofday () -. t0 > 0.5 then
    Alcotest.fail "zero-timeout recv blocked";
  Udp.close a;
  Udp.close b

(* A hub and skewed clients over real localhost UDP, all in this
   process: a skewed reading is the floor tick of [offset + rate·wall],
   so every session, hub cohorts and clients alike, reads whole ticks
   and runs on the charged spec's lattice. *)
let test_udp_skewed_swarm_on_lattice () =
  let clients = 4 in
  let spec = Swarm.star_spec ~nodes:(clients + 1) ~drift_ppm:500 ~hi_ms:250 in
  let cfg me = mk_cfg ~spec ~me ~heartbeat:(Q.of_ints 1 4) in
  let hub_net = Udp.create ~port:0 () in
  let hub =
    match
      Swarm.Uhub.create ~net:hub_net ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~peers:members (cfg 0) ~now:(Udp.now hub_net)))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "hub create: %s" m
  in
  let cls =
    List.init clients (fun i ->
        let g = i + 1 in
        let rate = Q.add Q.one (Q.of_ints (137 * g - 300) 1_000_000) in
        let net = Udp.create ~offset:(ms (40 * g)) ~rate ~port:0 () in
        let session = Session.create (cfg g) ~now:(Udp.now net) in
        let loop = Swarm.Unet.create ~net ~session () in
        Swarm.Unet.learn loop ~peer:0 (Udp.loopback (Udp.port hub_net));
        (net, session, loop))
  in
  let until = Unix.gettimeofday () +. 1.5 in
  while Unix.gettimeofday () < until do
    Swarm.Uhub.poll hub ~max_wait:Q.zero;
    List.iter (fun (_, _, loop) -> Swarm.Unet.poll loop ~max_wait:Q.zero) cls;
    Unix.sleepf 0.001
  done;
  List.iter
    (fun (net, session, _) ->
      if not (Session.established session 0) then
        Alcotest.fail "a client never reached the hub";
      match Interval.width (Session.sample session ~now:(Udp.now net) ()) with
      | Ext.Fin _ -> ()
      | Ext.Inf -> Alcotest.fail "a client never converged")
    cls;
  check_readings ~what:"udp"
    (List.init (Swarm.Uhub.cohorts hub) (Swarm.Uhub.session hub)
    @ List.map (fun (_, s, _) -> s) cls);
  List.iter (fun (net, _, _) -> Udp.close net) cls;
  Udp.close hub_net

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hub"
    [
      ( "equivalence",
        [
          Alcotest.test_case "hub == private pairs (fixed)" `Quick
            test_hub_equals_pairs;
          qt prop_hub_equals_pairs;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "cohort partition" `Quick test_cohort_partition;
          Alcotest.test_case "peer subset validated" `Quick
            test_peers_subset_validated;
          Alcotest.test_case "cohort history bounded" `Quick
            test_cohort_history_bounded;
          Alcotest.test_case "restore refuses other members" `Quick
            test_restore_refuses_other_members;
          Alcotest.test_case "spec-violating client contained" `Quick
            test_spec_violating_client;
        ] );
      ( "batching",
        [
          Alcotest.test_case "coalescing accounted" `Quick
            test_coalescing_accounting;
          Alcotest.test_case "duplicate hellos" `Quick test_duplicate_hellos;
          Alcotest.test_case "client churn mid-run" `Quick test_client_churn;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "loopback swarm converges" `Quick
            test_swarm_loopback_converges;
          Alcotest.test_case "deterministic under seed" `Quick
            test_swarm_deterministic;
        ] );
      ( "wakeups",
        [
          Alcotest.test_case "golden swarm traces" `Quick
            test_golden_swarm_traces;
          qt prop_wakeups_agree_with_scan;
        ] );
      ( "ticks",
        [
          Alcotest.test_case "lossy swarm on receiver ticks" `Quick
            (test_loopback_on_ticks ~seed:11 ~cohort:4
               ~heartbeat:(Q.of_ints 1 2) ~clients:10 ~duration:6
               ~delivered:404 ~dropped:49);
          Alcotest.test_case "fleet-32-lossy at K=8 on receiver ticks" `Quick
            (test_loopback_on_ticks ~seed:7 ~cohort:1
               ~heartbeat:(Q.of_ints 1 2) ~clients:8 ~duration:6
               ~delivered:347 ~dropped:32);
          Alcotest.test_case "lo = hi stays unaligned" `Quick
            test_loopback_fixed_delay_unaligned;
        ] );
      ( "udp",
        [
          Alcotest.test_case "burst drain until EWOULDBLOCK" `Quick
            test_udp_burst_drain;
          Alcotest.test_case "skewed swarm stays on the lattice" `Quick
            test_udp_skewed_swarm_on_lattice;
        ] );
    ]
