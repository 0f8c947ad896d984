(* Cross-layer property tests: randomized fuzzing and invariants that span
   several libraries (clock maps, codec robustness, snapshot canonicity,
   witness attainment, peer-clock containment). *)

let q = Q.of_int

(* --- clock properties over random policies and queries ----------------- *)

let arbitrary_policy =
  QCheck.make
    ~print:(function
      | `Random -> "random"
      | `Adversarial -> "adversarial"
      | `Sawtooth k -> Printf.sprintf "sawtooth %d" k
      | `Fixed _ -> "fixed")
    QCheck.Gen.(
      oneof
        [
          return `Random;
          return `Adversarial;
          map (fun k -> `Sawtooth k) (int_range 2 8);
          return (`Fixed Q.one);
        ])

let prop_clock_roundtrip =
  QCheck.Test.make ~name:"clock: rt_of_lt inverts lt_of_rt at random points"
    ~count:150
    QCheck.(
      triple arbitrary_policy (int_range 1 999)
        (list_of_size (Gen.int_range 1 12) (pair (int_range 0 5000) (int_range 1 97))))
    (fun (policy, seed, queries) ->
      let clock =
        Clock.create ~drift:(Drift.of_ppm 300) ~policy ~segment:(q 2)
          ~lt0:(Q.of_ints seed 7) ~rng:(Rng.create seed)
      in
      List.for_all
        (fun (num, den) ->
          let rt = Q.of_ints num den in
          let lt = Clock.lt_of_rt clock rt in
          Q.equal (Clock.rt_of_lt clock lt) rt)
        queries)

let prop_clock_elapse_within_drift =
  QCheck.Test.make ~name:"clock: every elapse respects the drift bounds"
    ~count:100
    QCheck.(pair arbitrary_policy (int_range 1 999))
    (fun (policy, seed) ->
      let drift = Drift.of_ppm 300 in
      let clock =
        Clock.create ~drift ~policy ~segment:(Q.of_ints 3 2) ~lt0:Q.zero
          ~rng:(Rng.create seed)
      in
      let ok = ref true in
      let prev_rt = ref Q.zero and prev_lt = ref (Clock.lt_of_rt clock Q.zero) in
      for i = 1 to 40 do
        let rt = Q.of_ints (i * 7) 5 in
        let lt = Clock.lt_of_rt clock rt in
        let dlt = Q.sub lt !prev_lt and drt = Q.sub rt !prev_rt in
        (* dRT/dLT in [rmin, rmax]  <=>  rmin*dlt <= drt <= rmax*dlt *)
        let open Drift in
        if Q.(Q.mul drift.rmin dlt > drt) || Q.(Q.mul drift.rmax dlt < drt)
        then ok := false;
        prev_rt := rt;
        prev_lt := lt
      done;
      !ok)

(* --- codec fuzzing ------------------------------------------------------ *)

let prop_codec_never_crashes =
  QCheck.Test.make ~name:"codec: arbitrary bytes never crash the decoder"
    ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.char)
    (fun s ->
      match Codec.decode s with
      | _payload -> true (* a random string decoding cleanly is fine *)
      | exception Failure _ -> true
      | exception Division_by_zero -> false
      | exception Invalid_argument _ -> false)

let prop_codec_bitflip =
  QCheck.Test.make ~name:"codec: single bit flips are rejected or re-decode"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) small_nat)
    (fun (lt_num, flip_pos) ->
      (* build a real payload, flip one bit, decode must not crash *)
      let send_event =
        { Event.id = { proc = 0; seq = 1 };
          lt = Q.of_ints lt_num 1000;
          kind = Event.Send { msg = 5; dst = 1 } }
      in
      let init = { Event.id = { proc = 0; seq = 0 }; lt = Q.zero; kind = Event.Init } in
      let wire = Codec.encode { Payload.send_event; events = [ init; send_event ] } in
      let pos = flip_pos mod String.length wire in
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor 1) else c)
          wire
      in
      match Codec.decode flipped with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

(* --- snapshot canonicity across random small executions ---------------- *)

let spec2 =
  System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1) ]

let prop_snapshot_canonical =
  QCheck.Test.make ~name:"csa: snapshot/restore/snapshot is the identity"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 0 8) (int_range 1 4))
    (fun gaps ->
      let a = Csa.create spec2 ~me:0 ~lt0:Q.zero in
      let b = Csa.create spec2 ~me:1 ~lt0:Q.zero in
      let msg = ref 0 in
      let t = ref 0 in
      List.iter
        (fun gap ->
          t := !t + (20 * gap);
          incr msg;
          let m1 = Csa.send a ~dst:1 ~msg:!msg ~lt:(q !t) in
          Csa.receive b ~msg:!msg ~lt:(q (!t + 3)) m1;
          incr msg;
          let m2 = Csa.send b ~dst:0 ~msg:!msg ~lt:(q (!t + 4)) in
          Csa.receive a ~msg:!msg ~lt:(q (!t + 8)) m2)
        gaps;
      let blob_a = Csa.snapshot a and blob_b = Csa.snapshot b in
      Csa.snapshot (Csa.restore spec2 blob_a) = blob_a
      && Csa.snapshot (Csa.restore spec2 blob_b) = blob_b)

(* --- witness attainment on random one-way chains ------------------------ *)

let prop_witness_attains_bounds =
  QCheck.Test.make
    ~name:"witness: extremal executions attain the optimal interval ends"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 6) (pair (int_range 1 9) (int_range 1 4)))
    (fun steps ->
      (* a chain of messages source -> 1 with random spacing *)
      let view = View.create ~n_procs:2 in
      let add proc seq lt kind =
        View.add view { Event.id = { proc; seq }; lt = q lt; kind }
      in
      add 0 0 0 Event.Init;
      add 1 0 0 Event.Init;
      let t = ref 0 in
      let last_arrive = ref 0 in
      let seqs = [| 1; 1 |] in
      List.iteri
        (fun i (gap, delay) ->
          t := !t + max 1 gap;
          (* FIFO link: arrivals are non-decreasing, still within [1, 5] *)
          let arrive = max !last_arrive (!t + max 1 (min 5 delay)) in
          last_arrive := arrive;
          add 0 seqs.(0) !t (Event.Send { msg = i; dst = 1 });
          add 1 seqs.(1) arrive
            (Event.Recv { msg = i; src = 0; send = { proc = 0; seq = seqs.(0) } });
          seqs.(0) <- seqs.(0) + 1;
          seqs.(1) <- seqs.(1) + 1)
        steps;
      let at = { Event.proc = 1; seq = seqs.(1) - 1 } in
      let interval = Reference.estimate spec2 view ~at in
      match Reference.source_point spec2 view with
      | None -> false
      | Some sp -> (
        let latest = Witness.extremal spec2 view ~anchor:sp `Latest in
        let earliest = Witness.extremal spec2 view ~anchor:sp `Earliest in
        Witness.feasible spec2 view latest
        && Witness.feasible spec2 view earliest
        &&
        (* the source time at `at` in each witness equals an interval end *)
        match Interval.lo interval, Interval.hi interval with
        | Interval.B lo, Interval.B hi ->
          (* witnesses anchor RT(sp) = LT(sp); source time at the event =
             its real time in that execution *)
          Q.equal (earliest at) lo && Q.equal (latest at) hi
        | _ -> (* one-way chains always have finite bounds here *) false))

(* --- peer clock bounds contain the truth in random runs ----------------- *)

let prop_peer_bounds_contain_truth =
  QCheck.Test.make
    ~name:"csa: peer_clock_bounds contains the peer's true reading"
    ~count:80
    QCheck.(
      pair (int_range 0 6)
        (list_of_size (Gen.int_range 1 8) (pair (int_range 1 5) (int_range 1 4))))
    (fun (offset, steps) ->
      (* hidden truth: both clocks run at rate 1; p1's clock = RT − offset;
         the source's clock = RT *)
      let ok = ref true in
      let a = Csa.create spec2 ~me:0 ~lt0:Q.zero in
      let b = Csa.create spec2 ~me:1 ~lt0:(q (-offset)) in
      let rt = ref 0 in
      let msg = ref 0 in
      List.iter
        (fun (gap, delay) ->
          rt := !rt + (10 * gap);
          incr msg;
          let m = Csa.send a ~dst:1 ~msg:!msg ~lt:(q !rt) in
          let arrive = !rt + min 5 (max 1 delay) in
          Csa.receive b ~msg:!msg ~lt:(q (arrive - offset)) m;
          (* at the receive instant the truth is: a's clock shows [arrive],
             b's own clock shows [arrive − offset] *)
          if not (Interval.mem (q arrive) (Csa.peer_clock_bounds b 0)) then
            ok := false;
          if
            not
              (Interval.equal
                 (Csa.peer_clock_bounds b 1)
                 (Interval.point (q (arrive - offset))))
          then ok := false)
        steps;
      !ok)

(* --- simulator executions stay legal on the tick lattice --------------- *)

type sim_case = {
  seed : int;
  ring : bool;  (* ring of 5, else star of 5 *)
  traffic : int;  (* poll, gossip, token, burst *)
  policy : Clock.policy;
  delay : Transport.delay_policy;
  loss : bool;
  chaos : bool;
}

let traffic_names = [| "poll"; "gossip"; "token"; "burst" |]

let arbitrary_sim_case =
  let open QCheck.Gen in
  let gen =
    map
      (fun (seed, ring, traffic, (policy, delay, loss, chaos)) ->
        { seed; ring; traffic; policy; delay; loss; chaos })
      (quad (int_range 0 10_000) bool (int_range 0 3)
         (quad
            (oneofl [ `Random; `Adversarial; `Fixed Q.one ])
            (oneofl [ `Uniform; `Min; `Max; `Alternate ])
            bool bool))
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "seed %d, %s, %s, %s, %s delays%s%s" c.seed
        (if c.ring then "ring" else "star")
        traffic_names.(c.traffic)
        (match c.policy with
        | `Random -> "random"
        | `Adversarial -> "adversarial"
        | `Fixed _ -> "fixed"
        | `Sawtooth _ -> "sawtooth")
        (match c.delay with
        | `Uniform -> "uniform"
        | `Min -> "min"
        | `Max -> "max"
        | `Alternate -> "alternate"
        | `Capped _ -> "capped")
        (if c.loss then ", loss" else "")
        (if c.chaos then ", chaos" else ""))

let sim_n = 5
let sim_lo = Scenario.ms 1
let sim_hi = Scenario.ms 10

let sim_scenario ?(transit = Transit.of_q sim_lo sim_hi) c =
  let links = if c.ring then Topology.ring sim_n else Topology.star sim_n in
  let spec =
    System_spec.uniform ~n:sim_n ~source:0 ~drift:(Drift.of_ppm 100) ~transit
      ~links
  in
  let traffic =
    match c.traffic with
    | 0 -> Scenario.Ntp_poll { period = Scenario.ms 300 }
    | 1 -> Scenario.Gossip { mean_gap = Scenario.ms 40 }
    | 2 -> Scenario.Ring_token { gap = Scenario.ms 37 }
    | _ ->
      Scenario.Burst
        { check_period = Scenario.ms 400; width_target = Scenario.ms 2 }
  in
  let duration = Scenario.sec 4 in
  {
    (Scenario.default ~spec ~traffic) with
    Scenario.seed = c.seed;
    duration;
    clock_policy = c.policy;
    delay = c.delay;
    clock_segment = Scenario.ms 700;
    loss_prob = (if c.loss then 0.15 else 0.);
    faults =
      (if c.chaos then
         Fault.Chaos.schedule ~seed:c.seed ~nodes:sim_n ~duration ~cycles:1 ()
       else []);
  }

(* The trace stamps events with [Q.to_float] of their real time.  On
   the lattice that real time is [rt_of_lt] of a whole tick of the
   acting node's clock, and the tick nearest the traced time must map
   back to exactly the traced float; off the lattice it cannot (two
   whole ticks are a microsecond apart).  So this recovers the exact
   real time of an on-tick event, and [None] means off the tick. *)
let on_tick_rt clock t =
  let lt = Clock.lt_of_rt clock (Q.of_float_exact t) in
  let nearest = Clock.floor_tick (Q.add lt (Q.div_int Clock.tick 2)) in
  let rt = Clock.rt_of_lt clock nearest in
  if Float.equal (Q.to_float rt) t then Some rt else None

let prop_sim_on_tick =
  QCheck.Test.make
    ~name:"sim: executions land on whole ticks and stay within the spec"
    ~count:60 arbitrary_sim_case (fun c ->
      let sends = Hashtbl.create 64 and recvs = ref [] and acts = ref [] in
      let on_event : Trace.event -> unit = function
        | Trace.Send { t; src; dst; msg; _ } ->
          Hashtbl.replace sends msg (t, src, dst);
          acts := (t, src) :: !acts
        | Trace.Receive { t; dst; msg; _ } ->
          recvs := (msg, t) :: !recvs;
          acts := (t, dst) :: !acts
        | Trace.Estimate { t; node; _ } | Trace.Recover { t; node } ->
          acts := (t, node) :: !acts
        | _ -> ()
      in
      let r, nodes =
        Engine.run_nodes
          { (sim_scenario c) with Scenario.trace = Trace.callback on_event }
      in
      let clock p = nodes.(p).Node_rt.clock in
      let exact_rt p t =
        match on_tick_rt (clock p) t with
        | Some rt -> rt
        | None ->
          QCheck.Test.fail_reportf "node %d acted off its ticks at %h" p t
      in
      Array.iter
        (fun (node : Node_rt.t) ->
          let lt0 = Clock.lt_of_rt node.Node_rt.clock Q.zero in
          if not (Q.equal lt0 (Clock.floor_tick lt0)) then
            QCheck.Test.fail_reportf "node %d boots off a tick"
              node.Node_rt.proc)
        nodes;
      List.iter (fun (t, p) -> ignore (exact_rt p t)) !acts;
      (* exact delays within [lo, hi], and FIFO per directed link *)
      let per_link = Hashtbl.create 16 in
      List.iter
        (fun (msg, t_recv) ->
          let t_send, src, dst = Hashtbl.find sends msg in
          let rt_send = exact_rt src t_send and rt_recv = exact_rt dst t_recv in
          let delay = Q.sub rt_recv rt_send in
          if Q.(delay < sim_lo || delay > sim_hi) then
            QCheck.Test.fail_reportf "msg %d: delay %s outside [lo, hi]" msg
              (Q.to_string delay);
          Hashtbl.replace per_link (src, dst)
            ((msg, rt_send, rt_recv)
            :: Option.value ~default:[] (Hashtbl.find_opt per_link (src, dst))))
        !recvs;
      Hashtbl.iter
        (fun (src, dst) msgs ->
          let sorted = List.sort compare msgs in
          ignore
            (List.fold_left
               (fun (ps, pr) (msg, s, r) ->
                 if Q.(s < ps || r < pr) then
                   QCheck.Test.fail_reportf "msg %d overtakes on %d->%d" msg
                     src dst;
                 (s, r))
               (Q.zero, Q.zero) sorted))
        per_link;
      if r.Engine.soundness_failures <> 0 then
        QCheck.Test.fail_reportf "%d unsound estimates"
          r.Engine.soundness_failures;
      Array.for_all
        (fun (node : Node_rt.t) -> Csa.oracle_scale node.Node_rt.csa <> None)
        nodes)

(* A link with lo = hi admits a single arrival instant, which is almost
   never a whole tick of the receiver: such deliveries stay unaligned,
   and their receivers leave the lattice for exact rationals. *)
let test_sim_exact_link () =
  let c =
    {
      seed = 3;
      ring = false;
      traffic = 0;
      policy = `Random;
      delay = `Uniform;
      loss = false;
      chaos = false;
    }
  in
  let received = Hashtbl.create 8 in
  let on_event : Trace.event -> unit = function
    | Trace.Receive { dst; _ } -> Hashtbl.replace received dst ()
    | _ -> ()
  in
  let r, nodes =
    Engine.run_nodes
      {
        (sim_scenario ~transit:(Transit.exact (Scenario.ms 5)) c) with
        Scenario.trace = Trace.callback on_event;
      }
  in
  Alcotest.(check bool) "messages flowed" true (r.Engine.messages_sent > 20);
  Alcotest.(check int) "sound" 0 r.Engine.soundness_failures;
  Alcotest.(check int) "every node received" sim_n (Hashtbl.length received);
  Array.iter
    (fun (node : Node_rt.t) ->
      Alcotest.(check (option int))
        (Printf.sprintf "node %d promoted" node.Node_rt.proc)
        None
        (Csa.oracle_scale node.Node_rt.csa))
    nodes

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "props"
    [
      qsuite "clock" [ prop_clock_roundtrip; prop_clock_elapse_within_drift ];
      qsuite "codec" [ prop_codec_never_crashes; prop_codec_bitflip ];
      qsuite "snapshot" [ prop_snapshot_canonical ];
      qsuite "witness" [ prop_witness_attains_bounds ];
      qsuite "peer-bounds" [ prop_peer_bounds_contain_truth ];
      ( "sim-ticks",
        QCheck_alcotest.to_alcotest prop_sim_on_tick
        :: [ Alcotest.test_case "lo = hi link promotes" `Quick
               test_sim_exact_link ] );
    ]
