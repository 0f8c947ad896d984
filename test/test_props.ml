(* Cross-layer property tests: randomized fuzzing and invariants that span
   several libraries (clock maps, codec robustness, snapshot canonicity,
   witness attainment, peer-clock containment). *)

let q = Q.of_int

(* a reading of [n] seconds, in ticks *)
let secs n = n * System_spec.ticks_per_second

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
          lt = lt_num * 1000;
          kind = Event.Send { msg = 5; dst = 1 } }
      in
      let init = { Event.id = { proc = 0; seq = 0 }; lt = 0; kind = Event.Init } in
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
      let a = Csa.create spec2 ~me:0 ~lt0:0 in
      let b = Csa.create spec2 ~me:1 ~lt0:0 in
      let msg = ref 0 in
      let t = ref 0 in
      List.iter
        (fun gap ->
          t := !t + (20 * gap);
          incr msg;
          let m1 = Csa.send a ~dst:1 ~msg:!msg ~lt:(secs !t) in
          Csa.receive b ~msg:!msg ~lt:(secs (!t + 3)) m1;
          incr msg;
          let m2 = Csa.send b ~dst:0 ~msg:!msg ~lt:(secs (!t + 4)) in
          Csa.receive a ~msg:!msg ~lt:(secs (!t + 8)) m2)
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
        View.add view { Event.id = { proc; seq }; lt = secs lt; kind }
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
      let a = Csa.create spec2 ~me:0 ~lt0:0 in
      let b = Csa.create spec2 ~me:1 ~lt0:(secs (-offset)) in
      let rt = ref 0 in
      let msg = ref 0 in
      List.iter
        (fun (gap, delay) ->
          rt := !rt + (10 * gap);
          incr msg;
          let m = Csa.send a ~dst:1 ~msg:!msg ~lt:(secs !rt) in
          let arrive = !rt + min 5 (max 1 delay) in
          Csa.receive b ~msg:!msg ~lt:(secs (arrive - offset)) m;
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

(* --- simulator executions read whole ticks and stay sound --------------- *)

type sim_case = {
  seed : int;
  ring : bool;  (* ring of 5, else star of 5 *)
  traffic : int;  (* poll, gossip, token, burst, quantized script *)
  policy : Clock.policy;
  delay : Transport.delay_policy;
  loss : bool;
  chaos : bool;
}

let traffic_names = [| "poll"; "gossip"; "token"; "burst"; "quantized" |]

let arbitrary_sim_case =
  let open QCheck.Gen in
  let gen =
    map
      (fun (seed, ring, traffic, (policy, delay, loss, chaos)) ->
        { seed; ring; traffic; policy; delay; loss; chaos })
      (quad (int_range 0 10_000) bool (int_range 0 4)
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

let sim_links c = if c.ring then Topology.ring sim_n else Topology.star sim_n

let sim_spec c transit =
  System_spec.uniform ~n:sim_n ~source:0 ~drift:(Drift.of_ppm 100) ~transit
    ~links:(sim_links c)

(* Adversarial quantization: every clock reads real time (rate 1, no
   offset), the link's bounds sit ε off the tick grid, and the script
   times each send so that one end of its message reads almost a whole
   tick late.  An odd send attempt (slow: hi = 5 ms + ε) leaves at
   k·tick − ε and arrives on a whole tick; an even one (fast:
   lo = 1 ms − ε) leaves on a whole tick and arrives at one − ε.
   Between the instants their readings stand for, slow messages take
   almost a tick more than hi and fast ones almost a tick less than lo,
   and every fast receiver reads almost a tick behind the truth. *)
let eps = Q.of_ints 1 1_000_000_000

let quantized_scenario c =
  let spec =
    sim_spec c (Transit.of_q (Q.sub sim_lo eps) (Q.add (Scenario.ms 5) eps))
  in
  let rng = Rng.create c.seed in
  let links = Array.of_list (sim_links c) in
  let sends =
    List.init 70 (fun i ->
        let u, v = links.(Rng.int rng (Array.length links)) in
        let src, dst = if Rng.bool rng then (u, v) else (v, u) in
        let at = Q.mul_int Clock.tick (((i + 1) * 50_000) + Rng.int rng 1000) in
        ((if i mod 2 = 0 then Q.sub at eps else at), src, dst))
  in
  {
    (Scenario.default ~spec ~traffic:(Scenario.Script { sends })) with
    Scenario.seed = c.seed;
    duration = Scenario.sec 4;
    clock_policy = `Fixed Q.one;
    max_offset = Q.zero;
    delay = `Alternate;
    loss_prob = (if c.loss then 0.15 else 0.);
  }

let sim_scenario ?(transit = Transit.of_q sim_lo sim_hi) c =
  if c.traffic = 4 then quantized_scenario c
  else
  let spec = sim_spec c transit in
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

(* Every reading is a whole tick (a CSA takes nothing else: its
   readings are ints of ticks), delays stay within the declared
   [lo, hi] and FIFO per directed link (up to the trace's float
   stamps), and no estimate misses the true time, quantized
   adversarially or not. *)
let prop_sim_on_tick =
  QCheck.Test.make
    ~name:"sim: executions land on whole ticks and stay within the spec"
    ~count:60 arbitrary_sim_case (fun c ->
      let sends = Hashtbl.create 64 and recvs = ref [] in
      let on_event : Trace.event -> unit = function
        | Trace.Send { t; src; dst; msg; _ } ->
          Hashtbl.replace sends msg (t, src, dst)
        | Trace.Receive { t; msg; _ } -> recvs := (msg, t) :: !recvs
        | _ -> ()
      in
      let scn = sim_scenario c in
      let r =
        Engine.run { scn with Scenario.trace = Trace.callback on_event }
      in
      let tr = System_spec.transit_exn scn.Scenario.spec 0 1 in
      let lo = Q.to_float tr.Transit.lo -. 1e-12
      and hi = Q.to_float (Ext.fin_exn tr.Transit.hi) +. 1e-12 in
      let per_link = Hashtbl.create 16 in
      List.iter
        (fun (msg, t_recv) ->
          let t_send, src, dst = Hashtbl.find sends msg in
          let delay = t_recv -. t_send in
          if delay < lo || delay > hi then
            QCheck.Test.fail_reportf "msg %d: delay %g outside [lo, hi]" msg
              delay;
          Hashtbl.replace per_link (src, dst)
            ((msg, t_send, t_recv)
            :: Option.value ~default:[] (Hashtbl.find_opt per_link (src, dst))))
        !recvs;
      Hashtbl.iter
        (fun (src, dst) msgs ->
          ignore
            (List.fold_left
               (fun (ps, pr) (msg, s, r) ->
                 if s < ps || r < pr -. 1e-12 then
                   QCheck.Test.fail_reportf "msg %d overtakes on %d->%d" msg
                     src dst;
                 (s, r))
               (0., 0.) (List.sort compare msgs)))
        per_link;
      if r.Engine.soundness_failures <> 0 then
        QCheck.Test.fail_reportf "%d unsound estimates"
          r.Engine.soundness_failures;
      true)

(* A link with lo = hi admits a single arrival instant, which is almost
   never a whole tick of the receiver.  Its receivers read the floor
   tick like everyone else, and run on the charged spec's lattice:
   transit [5 ms − q, 5 ms + q] with q = 2 µs, D = 10^10. *)
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
  let q2 = Q.mul_int Clock.tick 2 in
  Array.iter
    (fun (node : Node_rt.t) ->
      let csa = node.Node_rt.csa in
      let spec = Csa.spec csa in
      let what = Printf.sprintf "node %d" node.Node_rt.proc in
      Alcotest.(check int) (what ^ " lattice") 10_000_000_000
        (System_spec.lattice spec);
      Alcotest.(check bool) (what ^ " charged transit") true
        (Transit.equal
           (System_spec.transit_exn spec 0 1)
           (Transit.widen q2 (Transit.exact (Scenario.ms 5)))))
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
        :: [ Alcotest.test_case "lo = hi link stays on the lattice" `Quick
               test_sim_exact_link ] );
    ]
