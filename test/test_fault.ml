(* Fault-subsystem tests: the durable checkpoint store (fuzzed like the
   frame codec), seeded chaos schedules, and
   the two load-bearing recovery properties — a crash-recovered simulator
   run is indistinguishable from a never-crashed one once re-synchronized
   (write-ahead checkpoints make restarts invisible), and a session
   restored from a checkpoint re-handshakes with its dedup floor and
   message-id allocator intact. *)

let q = Q.of_int
let ms = Scenario.ms
let sec = Scenario.sec

(* --- Store ------------------------------------------------------------ *)

(* a scratch directory per run; Store.create makes it on demand *)
let scratch_dir =
  let f = Filename.temp_file "csync_fault" "" in
  Sys.remove f;
  f

let fresh_store =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Fault.Store.create ~dir:(Filename.concat scratch_dir (string_of_int !ctr))
      ~node:3

let write_raw path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_load msg expected store =
  match (Fault.Store.load_result store, expected) with
  | Ok got, `Ok want ->
    Alcotest.(check (option string)) msg want got
  | Error _, `Error -> ()
  | Ok got, `Error ->
    Alcotest.failf "%s: expected an error, loaded %s" msg
      (match got with None -> "nothing" | Some b -> Printf.sprintf "%S" b)
  | Error e, `Ok _ -> Alcotest.failf "%s: unexpected error %s" msg e

let test_store_round_trip () =
  let s = fresh_store () in
  check_load "empty dir" (`Ok None) s;
  Fault.Store.save s "first-blob";
  check_load "first save" (`Ok (Some "first-blob")) s;
  Fault.Store.save s "second, longer blob \x00\xff with binary bytes";
  check_load "atomic replace"
    (`Ok (Some "second, longer blob \x00\xff with binary bytes"))
    s;
  Fault.Store.save s "";
  check_load "empty blob is a valid checkpoint" (`Ok (Some "")) s;
  Fault.Store.wipe s;
  check_load "after wipe" (`Ok None) s;
  Alcotest.check_raises "negative node id"
    (Invalid_argument "Fault.Store.create: negative node id") (fun () ->
      ignore (Fault.Store.create ~dir:scratch_dir ~node:(-1)))

let test_store_fuzz () =
  (* every truncation and every single-bit flip of a valid checkpoint
     file must come back as [Error], never an exception and never a
     mangled blob — the checksum trailer covers the entire file *)
  let s = fresh_store () in
  let blob = String.init 200 (fun i -> Char.chr (i * 7 land 0xff)) in
  Fault.Store.save s blob;
  let good = read_raw (Fault.Store.path s) in
  for len = 0 to String.length good - 1 do
    write_raw (Fault.Store.path s) (String.sub good 0 len);
    match Fault.Store.load_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes accepted" len
    | exception e ->
      Alcotest.failf "prefix of %d bytes raised %s" len (Printexc.to_string e)
  done;
  for i = 0 to String.length good - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code good.[i] lxor (1 lsl bit)));
      write_raw (Fault.Store.path s) (Bytes.to_string b);
      match Fault.Store.load_result s with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.failf "bit %d of byte %d flipped, still accepted" bit i
      | exception e ->
        Alcotest.failf "bit %d of byte %d raised %s" bit i
          (Printexc.to_string e)
    done
  done;
  let rng = Rng.create 13 in
  for _ = 1 to 300 do
    let len = Rng.int rng 64 in
    write_raw (Fault.Store.path s)
      (String.init len (fun _ -> Char.chr (Rng.int rng 256)));
    match Fault.Store.load_result s with
    | Error _ | Ok None -> ()
    | Ok (Some b) -> Alcotest.failf "junk file loaded as %S" b
    | exception e -> Alcotest.failf "junk file raised %s" (Printexc.to_string e)
  done;
  write_raw (Fault.Store.path s) (good ^ "x");
  check_load "trailing garbage" `Error s

let test_store_node_mismatch () =
  (* an operator pointing node B at node A's checkpoint file must get a
     refusal, not node A's state *)
  let dir = Filename.concat scratch_dir "mismatch" in
  let a = Fault.Store.create ~dir ~node:1 in
  let b = Fault.Store.create ~dir ~node:2 in
  Fault.Store.save a "state of node 1";
  write_raw (Fault.Store.path b) (read_raw (Fault.Store.path a));
  check_load "node id mismatch" `Error b;
  check_load "the original still loads" (`Ok (Some "state of node 1")) a

(* --- Chaos ------------------------------------------------------------ *)

let test_chaos_schedule () =
  let duration = sec 60 in
  let sched seed =
    Fault.Chaos.schedule ~seed ~nodes:5 ~duration ~cycles:4 ~partitions:2 ()
  in
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "different seed, different schedule" true
    (sched 7 <> sched 8);
  let evs = sched 7 in
  Alcotest.(check bool) "sorted by time" true
    (evs = Fault.Injection.by_time evs);
  (* structural bounds: no fault on the protected source, everything
     inside the run, every crash paired with a later restart *)
  let down = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let at = Fault.Injection.at ev in
      Alcotest.(check bool) "fault strictly inside the run" true
        (Q.sign at > 0 && Q.compare at duration < 0);
      (match Fault.Injection.node ev with
      | Some n ->
        Alcotest.(check bool) "source is protected" true (n <> 0);
        Alcotest.(check bool) "victim in range" true (n >= 1 && n < 5)
      | None -> ());
      match ev with
      | Fault.Injection.Crash { node; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d not already down" node)
          false (Hashtbl.mem down node);
        Hashtbl.replace down node ()
      | Fault.Injection.Restart { node; at = _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "restart of node %d follows its crash" node)
          true (Hashtbl.mem down node);
        Hashtbl.remove down node
      | Fault.Injection.Partition { at; heal; island } ->
        Alcotest.(check bool) "partition heals after it starts" true
          (Q.compare at heal < 0);
        Alcotest.(check bool) "island excludes the source" true
          (not (List.mem 0 island));
        Alcotest.(check bool) "island is proper" true
          (island <> [] && List.length island < 5)
      | Fault.Injection.Link_cut _ ->
        Alcotest.fail "Chaos.schedule never emits link cuts")
    evs;
  Alcotest.(check bool) "every crash got its restart" true
    (Hashtbl.length down = 0);
  Alcotest.check_raises "all nodes protected"
    (Invalid_argument "Fault.Chaos.schedule: every node is protected")
    (fun () ->
      ignore
        (Fault.Chaos.schedule ~seed:1 ~nodes:2 ~protect:[ 0; 1 ]
           ~duration:(sec 10) ()))

let test_link_churn_schedule () =
  let duration = sec 100 in
  (* deliberately unnormalized orientations: the generator must treat
     (1,0) and (0,1) as the same undirected link *)
  let links = [ (1, 0); (1, 2); (2, 0) ] in
  let sched seed = Fault.Chaos.link_churn ~seed ~links ~duration ~cuts:8 () in
  Alcotest.(check bool) "same seed, same churn" true (sched 5 = sched 5);
  Alcotest.(check bool) "different seed, different churn" true
    (sched 5 <> sched 6);
  let evs = sched 5 in
  Alcotest.(check bool) "some cuts survive the overlap filter" true (evs <> []);
  Alcotest.(check bool) "sorted by time" true
    (evs = Fault.Injection.by_time evs);
  let windows = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Fault.Injection.Link_cut { at; heal; u; v } ->
        Alcotest.(check bool) "endpoints normalized" true (u <= v);
        Alcotest.(check bool) "cut is on a spec link" true
          (List.exists (fun (a, b) -> (a, b) = (u, v) || (b, a) = (u, v)) links);
        Alcotest.(check bool) "cut strictly inside the run" true
          (Q.sign at > 0 && Q.compare heal duration < 0);
        Alcotest.(check bool) "heals after it cuts" true
          (Q.compare at heal < 0);
        List.iter
          (fun (a, b) ->
            Alcotest.(check bool) "per-link down windows disjoint" true
              (Q.compare heal a < 0 || Q.compare b at < 0))
          (Option.value (Hashtbl.find_opt windows (u, v)) ~default:[]);
        Hashtbl.replace windows (u, v)
          ((at, heal)
          :: Option.value (Hashtbl.find_opt windows (u, v)) ~default:[])
      | ev -> Alcotest.failf "link_churn emitted %s" (Fault.Injection.label ev))
    evs;
  List.iter
    (fun ev ->
      match ev with
      | Fault.Injection.Link_cut { u; v; _ } ->
        Alcotest.(check bool) "protected link never cut" true ((u, v) <> (0, 1))
      | _ -> ())
    (Fault.Chaos.link_churn ~seed:5 ~links ~duration ~cuts:8
       ~protect:[ (1, 0) ] ());
  Alcotest.check_raises "all links protected"
    (Invalid_argument "Fault.Chaos.link_churn: every link is protected")
    (fun () ->
      ignore
        (Fault.Chaos.link_churn ~seed:1 ~links:[ (0, 1) ] ~duration
           ~protect:[ (1, 0) ] ()));
  Alcotest.check_raises "non-positive duration"
    (Invalid_argument "Fault.Chaos.link_churn: non-positive duration")
    (fun () -> ignore (Fault.Chaos.link_churn ~seed:1 ~links ~duration:(q 0) ()))

(* Exact schedules, recorded from the generators: both draw their down
   windows through one helper, and every chaos run is reproducible from
   its seed only while the helper keeps each RNG call and its order. *)
let test_chaos_pinned () =
  let open Fault.Injection in
  let qi = Q.of_ints in
  Alcotest.(check bool) "Chaos.schedule ~seed:7" true
    (Fault.Chaos.schedule ~seed:7 ~nodes:5 ~duration:(sec 60) ~cycles:4
       ~partitions:2 ()
    = [
        Crash { at = qi 12626871 524288; node = 3 };
        Restart { at = qi 70623939 2621440; node = 3 };
        Partition
          { at = qi 3776139 131072; heal = qi 636351 20480; island = [ 3; 4 ] };
        Crash { at = qi 10380831 262144; node = 2 };
        Restart { at = qi 55021671 1310720; node = 2 };
        Partition
          {
            at = qi 23176809 524288;
            heal = qi 24295149 524288;
            island = [ 1; 2; 3; 4 ];
          };
      ]);
  let cut at heal u v = Link_cut { at; heal; u; v } in
  Alcotest.(check bool) "Chaos.link_churn ~seed:5" true
    (Fault.Chaos.link_churn ~seed:5
       ~links:[ (1, 0); (1, 2); (2, 0) ]
       ~duration:(sec 100) ~cuts:8 ()
    = [
        cut (qi 6938315 524288) (qi 10629595 524288) 0 1;
        cut (qi 6667965 262144) (qi 7803449 262144) 0 1;
        cut (qi 15292885 524288) (qi 18438829 524288) 0 2;
        cut (qi 18846645 524288) (qi 20830657 524288) 0 2;
        cut (qi 19780165 524288) (qi 22015373 524288) 0 1;
        cut (qi 21062355 524288) (qi 25480883 524288) 0 2;
        cut (qi 13668945 262144) (qi 14249477 262144) 0 2;
        cut (qi 37645145 524288) (qi 39063597 524288) 1 2;
      ])

(* --- simulator: crash-recovery equivalence ---------------------------- *)

let spec3 =
  System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (ms 1) (ms 5))
    ~links:[ (0, 1); (1, 2); (0, 2) ]

let pairs = [| (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) |]

(* round gap of 10 s against <= 5 ms link delays: round [i]'s messages
   are all delivered long before anything else happens, so a crash
   window placed strictly between rounds never races in-flight traffic *)
let gap = q 10

let script_of rounds =
  List.concat
    (List.mapi
       (fun i sel ->
         List.map
           (fun k ->
             let src, dst = pairs.(k mod Array.length pairs) in
             (Q.mul_int gap (i + 1), src, dst))
           sel)
       rounds)

let fault_scenario ~seed ~rounds ~faults =
  {
    (Scenario.default ~spec:spec3
       ~traffic:(Scenario.Script { sends = script_of rounds }))
    with
    Scenario.seed;
    duration = Q.mul_int gap (List.length rounds + 2);
    loss_prob = 0.;
    faults;
  }

(* what must be indistinguishable between the crashed and crash-free
   runs: the live point sets, all pairwise oracle distances between
   them, and the optimal estimate — the quantities Theorem 2.1's output
   is a function of.  (History sizes may differ: faults force lossy
   mode, whose acknowledgement bookkeeping garbage-collects on a
   different schedule.) *)
let check_nodes_equivalent ~tag a b =
  Array.iteri
    (fun i (na : Node_rt.t) ->
      let nb : Node_rt.t = b.(i) in
      let ids = Csa.live_event_ids na.csa in
      if ids <> Csa.live_event_ids nb.csa then
        QCheck.Test.fail_reportf "%s: node %d live sets differ" tag i;
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              if
                not
                  (Ext.equal
                     (Csa.dist_between na.csa x y)
                     (Csa.dist_between nb.csa x y))
              then
                QCheck.Test.fail_reportf "%s: node %d distances differ" tag i)
            ids)
        ids;
      if not (Interval.equal (Csa.estimate na.csa) (Csa.estimate nb.csa)) then
        QCheck.Test.fail_reportf "%s: node %d estimates differ (%s vs %s)" tag
          i
          (Fmt.str "%a" Interval.pp (Csa.estimate na.csa))
          (Fmt.str "%a" Interval.pp (Csa.estimate nb.csa)))
    a

let arbitrary_crash_run =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_range 0 10_000 in
      let* rounds =
        list_size (int_range 2 5) (list_size (int_range 1 3) (int_range 0 5))
      in
      let* victim = int_range 1 2 in
      let* k = int_range 1 (List.length rounds) in
      return (seed, rounds, victim, k))
  in
  QCheck.make
    ~print:(fun (seed, rounds, victim, k) ->
      Printf.sprintf "seed=%d rounds=%s victim=%d crash_round=%d" seed
        (String.concat ";"
           (List.map
              (fun r -> String.concat "," (List.map string_of_int r))
              rounds))
        victim k)
    gen

let prop_recovery_equivalence =
  QCheck.Test.make
    ~name:
      "fault: crash + restore-from-checkpoint is invisible once \
       re-synchronized"
    ~count:20 arbitrary_crash_run (fun (seed, rounds, victim, k) ->
      (* crash strictly between rounds k and k+1, restart before k+1 *)
      let t0 = Q.add (Q.mul_int gap k) (q 5) in
      let t1 = Q.add (Q.mul_int gap k) (Q.of_ints 15 2) in
      let faults =
        [
          Fault.Injection.Crash { at = t0; node = victim };
          Fault.Injection.Restart { at = t1; node = victim };
        ]
      in
      let r_crash, n_crash =
        Engine.run_nodes (fault_scenario ~seed ~rounds ~faults)
      in
      let r_clean, n_clean =
        Engine.run_nodes (fault_scenario ~seed ~rounds ~faults:[])
      in
      if r_crash.Engine.soundness_failures <> 0 then
        QCheck.Test.fail_reportf "crashed run unsound";
      if r_clean.Engine.soundness_failures <> 0 then
        QCheck.Test.fail_reportf "clean run unsound";
      check_nodes_equivalent ~tag:"crash vs clean" n_crash n_clean;
      true)

let churn_scenario ~faults ~loss_prob ~trace =
  let spec =
    System_spec.uniform ~n:4 ~source:0 ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (ms 1) (ms 5))
      ~links:(Topology.star 4)
  in
  {
    (Scenario.default ~spec ~traffic:(Scenario.Ntp_poll { period = ms 500 }))
    with
    Scenario.seed = 9;
    duration = sec 20;
    loss_prob;
    faults;
    trace;
  }

let test_chaos_run_sound () =
  (* randomized crash/restart cycles + a partition on top of 10% message
     loss: whatever the schedule does, Theorem 2.1 soundness must hold
     at every delivery, and the fault machinery must actually fire *)
  let m = Metrics.create () in
  let faults =
    Fault.Chaos.schedule ~seed:5 ~nodes:4 ~duration:(sec 20) ~cycles:3
      ~partitions:1 ()
  in
  let r =
    Engine.run
      (churn_scenario ~faults ~loss_prob:0.1
         ~trace:(Metrics.sink m))
  in
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Alcotest.(check bool) "crashes happened" true (Metrics.crashes m >= 1);
  Alcotest.(check int) "every crash recovered" (Metrics.crashes m)
    (Metrics.recoveries m);
  Alcotest.(check bool) "write-ahead checkpoints were taken" true
    (Metrics.checkpoints m > Metrics.crashes m);
  Alcotest.(check bool) "checkpoint bytes counted" true
    (Metrics.checkpoint_bytes m > 0)

let test_crash_keeps_verdicts () =
  (* In this schedule node 7 sends msg 38 at t = 1.641 s, gets its ack
     at 1.647 s and crashes at 1.654 s, before its next checkpoint.  The
     restored node predates the ack; unless revive replays the verdicts
     the crash lost, msg 38 stays inflight forever, [acked_coverage]
     pins the history and it grows without bound (|H| reached 474 by
     10 s, against ~100 on every other node and seed). *)
  let d = sec 10 in
  let spec =
    System_spec.uniform ~n:8 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (ms 1) (ms 10))
      ~links:(Topology.star 8)
  in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = ms 500 }))
        with
        Scenario.seed = 7000070;
        duration = d;
        faults =
          Fault.Chaos.schedule ~seed:7000070 ~nodes:8 ~duration:d ~cycles:1 ();
      }
  in
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Array.iteri
    (fun p (s : Engine.node_summary) ->
      if s.Engine.peak_history > 150 then
        Alcotest.failf "node %d: peak |H| = %d > 150" p s.Engine.peak_history)
    r.Engine.per_node

let test_churn_join_leave () =
  (* node 3 is absent at time 0 (a crash before its first poll) and
     joins mid-run; node 2 leaves and comes back — deliveries to absent
     nodes become Section 3.3 losses, and soundness still holds
     everywhere *)
  let m = Metrics.create () in
  let faults =
    [
      Fault.Injection.Crash { at = q 0; node = 3 };
      Fault.Injection.Restart { at = sec 5; node = 3 };
      Fault.Injection.Crash { at = sec 8; node = 2 };
      Fault.Injection.Restart { at = sec 12; node = 2 };
    ]
  in
  let r, nodes =
    Engine.run_nodes
      (churn_scenario ~faults ~loss_prob:0.
         ~trace:(Metrics.sink m))
  in
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Alcotest.(check int) "an absence and a departure" 2 (Metrics.crashes m);
  Alcotest.(check int) "two joins recovered" 2 (Metrics.recoveries m);
  (* both churned nodes synchronized after (re)joining: each polls the
     source every 500 ms, so by the horizon their intervals are finite *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d caught up after joining" p)
        true
        (Ext.is_fin (Interval.width (Csa.estimate nodes.(p).Node_rt.csa))))
    [ 2; 3 ]

let test_partition_sound () =
  let m = Metrics.create () in
  let faults =
    [ Fault.Injection.Partition { at = sec 5; heal = sec 8; island = [ 2 ] } ]
  in
  let r =
    Engine.run
      (churn_scenario ~faults ~loss_prob:0.
         ~trace:(Metrics.sink m))
  in
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Alcotest.(check bool) "partition dropped messages" true
    (r.Engine.messages_lost > 0);
  Alcotest.(check int) "nobody crashed" 0 (Metrics.crashes m)

(* A partition touches no node state, so a partition-only run takes no
   checkpoints; its estimates are the ones recorded when every node
   still checkpointed on each send and receive. *)
let test_partition_no_checkpoints () =
  let m = Metrics.create () in
  let faults =
    [ Fault.Injection.Partition { at = sec 5; heal = sec 8; island = [ 2 ] } ]
  in
  let r, nodes =
    Engine.run_nodes (churn_scenario ~faults ~loss_prob:0. ~trace:(Metrics.sink m))
  in
  Alcotest.(check int) "no checkpoints" 0 (Metrics.checkpoints m);
  Alcotest.(check (pair int int)) "sent, lost" (232, 6)
    (r.Engine.messages_sent, r.Engine.messages_lost);
  Alcotest.(check (list string))
    "per-node estimates"
    [
      "[248589/12500, 9943561/500000]";
      "[24422427683/1250000000, 24423779817/1250000000]";
      "[49260601643/2500000000, 98524189937/5000000000]";
      "[24863190523/1250000000, 24865004477/1250000000]";
    ]
    (Array.to_list
       (Array.map
          (fun (n : Node_rt.t) -> Interval.to_string (Csa.estimate n.csa))
          nodes))

(* Regression for the severed-edge fix: a cut must lose BOTH messages
   already in flight when it lands and messages sent during the down
   window — each through the Section 3.3 oracle, never a silent drop.
   Second-scale transit bounds make the in-flight window explicit. *)
let test_severed_edge_lost () =
  let spec =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (sec 1) (sec 2))
      ~links:[ (0, 1) ]
  in
  (* 0.5 s: in flight (delivery in [1.5, 2.5]) when the cut lands at 1 s;
     1.2 s: sent inside the down window [1, 3];
     4 s:   sent after the heal — must go through *)
  let sends =
    [ (Q.of_ints 1 2, 0, 1); (Q.of_ints 6 5, 0, 1); (sec 4, 0, 1) ]
  in
  let m = Metrics.create () in
  let scenario =
    {
      (Scenario.default ~spec ~traffic:(Scenario.Script { sends })) with
      Scenario.seed = 3;
      duration = sec 8;
      loss_prob = 0.;
      (* unnormalized orientation on purpose: the engine keys dynamic
         links by the normalized undirected pair *)
      faults =
        [ Fault.Injection.Link_cut { at = sec 1; heal = sec 3; u = 1; v = 0 } ];
      trace = Metrics.sink m;
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check int) "three sends" 3 r.Engine.messages_sent;
  Alcotest.(check int) "severed + down-window sends lost" 2
    r.Engine.messages_lost;
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Alcotest.(check int) "one cut traced" 1 (Metrics.link_cuts m);
  Alcotest.(check int) "one heal traced" 1 (Metrics.link_heals m)

let test_churn_scenario_sound () =
  let m = Metrics.create () in
  let scenario =
    {
      (churn_scenario ~faults:[] ~loss_prob:0.
         ~trace:(Metrics.sink m))
      with
      Scenario.churn =
        Some { Scenario.cuts = 6; min_down = None; max_down = None };
    }
  in
  let r = Engine.run scenario in
  Alcotest.(check int) "no soundness failures" 0 r.Engine.soundness_failures;
  Alcotest.(check bool) "churn actually cut links" true
    (Metrics.link_cuts m > 0);
  Alcotest.(check int) "every cut heals inside the run" (Metrics.link_cuts m)
    (Metrics.link_heals m);
  Alcotest.(check int) "nobody crashed" 0 (Metrics.crashes m)

let test_churn_refuses_validate () =
  let scenario =
    {
      (churn_scenario ~faults:[] ~loss_prob:0.
         ~trace:Trace.null)
      with
      Scenario.churn =
        Some { Scenario.cuts = 2; min_down = None; max_down = None };
      validate = true;
    }
  in
  match Engine.run scenario with
  | _ -> Alcotest.fail "churn + validate accepted"
  | exception Invalid_argument _ -> ()

let test_faults_refuse_validate () =
  let scenario =
    {
      (churn_scenario
         ~faults:[ Fault.Injection.Crash { at = sec 5; node = 1 } ]
         ~loss_prob:0. ~trace:Trace.null)
      with
      Scenario.validate = true;
    }
  in
  match Engine.run scenario with
  | _ -> Alcotest.fail "faults + validate accepted"
  | exception Invalid_argument _ -> ()

(* --- net runtime: session restart ------------------------------------- *)

let spec2 =
  System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (ms 1) (ms 5))
    ~links:[ (0, 1) ]

let session_cfg me =
  {
    (Session.default_config ~me ~spec:spec2) with
    Session.heartbeat = ms 200;
    announce_base = ms 100;
    announce_cap = ms 1600;
    ack_timeout = ms 500;
    peer_timeout = q 10;
  }

(* Shuttle every queued frame between two sessions until quiescent.
   Each hop lands 2 ms after it was queued — inside the spec's [1, 5] ms
   transit bounds; delivering at the send instant would hand the CSA a
   physically impossible execution (zero elapse on a link whose transit
   is at least 1 ms) and eventually a negative cycle. *)
let hop = ms 2

let deliver_frames ~now dst frames =
  List.iter
    (fun (_, bytes) ->
      match Frame.decode bytes with
      | Ok f -> Session.handle dst ~now ~bytes:(String.length bytes) f
      | Error e -> Alcotest.failf "undecodable frame: %s" e)
    frames

let pump ~now a b =
  Session.tick a ~now;
  Session.tick b ~now;
  let rec go now n =
    if n > 100 then Alcotest.fail "pump did not quiesce";
    let fa = Session.drain a and fb = Session.drain b in
    if fa <> [] || fb <> [] then begin
      let now = Q.add now hop in
      deliver_frames ~now b fa;
      deliver_frames ~now a fb;
      go now (n + 1)
    end
  in
  go now 0

let data_msg_ids frames =
  List.filter_map
    (fun (_, bytes) ->
      match Frame.decode bytes with
      | Ok { Frame.body = Frame.Data { msg; _ }; _ } -> Some msg
      | _ -> None)
    frames

let test_session_restart () =
  let a = Session.create (session_cfg 0) ~now:(q 0) in
  let b = Session.create (session_cfg 1) ~now:(q 0) in
  Session.peer_reachable a ~peer:1 ~now:(q 0);
  Session.peer_reachable b ~peer:0 ~now:(q 0);
  pump ~now:(ms 200) a b;
  Alcotest.(check bool) "handshake done" true
    (Session.established a 1 && Session.established b 0);
  (* run a few heartbeat exchanges with b checkpointing write-ahead *)
  let last_ckpt = ref None in
  Session.set_checkpoint b (fun blob -> last_ckpt := Some blob);
  Session.send_data b ~now:(ms 400) ~dst:0;
  let pre = Session.drain b in
  let b_ids_pre = data_msg_ids pre in
  Alcotest.(check bool) "b checkpointed before its send left" true
    (!last_ckpt <> None);
  deliver_frames ~now:(ms 402) a pre;
  Session.send_data b ~now:(ms 600) ~dst:0;
  pump ~now:(ms 600) a b;
  (* capture a data frame a -> b, deliver it, and keep the bytes to
     replay at the restarted instance *)
  Session.send_data a ~now:(ms 800) ~dst:1;
  let stale = Session.drain a in
  Alcotest.(check bool) "captured a data frame" true (data_msg_ids stale <> []);
  deliver_frames ~now:(ms 802) b stale;
  pump ~now:(ms 810) a b;
  let blob = Option.get !last_ckpt in
  let b_events = Csa.events_processed (Session.csa b) in
  (* kill -9: [b] is gone; rebuild from the last durable blob *)
  let b' =
    match Session.restore (session_cfg 1) ~now:(q 2) blob with
    | Ok s -> s
    | Error m -> Alcotest.failf "restore failed: %s" m
  in
  Alcotest.(check int) "restored CSA kept every acked event" b_events
    (Csa.events_processed (Session.csa b'));
  Alcotest.(check bool) "restart forgets liveness, not state" false
    (Session.established b' 0);
  (* dedup floor survived: replaying the pre-crash frame is a no-op *)
  deliver_frames ~now:(q 2) b' stale;
  Alcotest.(check int) "stale data frame deduplicated" b_events
    (Csa.events_processed (Session.csa b'));
  ignore (Session.drain b');
  (* re-handshake and keep running *)
  Session.peer_reachable b' ~peer:0 ~now:(q 2);
  pump ~now:(Q.add (q 2) (ms 200)) a b';
  Alcotest.(check bool) "re-handshake done" true
    (Session.established a 1 && Session.established b' 0);
  let a_events = Csa.events_processed (Session.csa a) in
  Session.send_data b' ~now:(Q.add (q 2) (ms 400)) ~dst:0;
  let fresh = Session.drain b' in
  let b_ids_post = data_msg_ids fresh in
  Alcotest.(check bool) "allocator floor survived the restart" true
    (List.for_all
       (fun post -> List.for_all (fun pre -> post > pre) b_ids_pre)
       b_ids_post);
  deliver_frames ~now:(Q.add (q 2) (ms 402)) a fresh;
  Alcotest.(check bool) "a accepted the post-restart data" true
    (Csa.events_processed (Session.csa a) > a_events)

let test_session_restore_total () =
  let b = Session.create (session_cfg 1) ~now:(q 0) in
  Session.set_checkpoint b (fun _ -> ());
  let blob = Session.snapshot b in
  (match Session.restore (session_cfg 1) ~now:(q 1) blob with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "pristine snapshot refused: %s" m);
  (* wrong node, wrong shape: refused like a mismatched hello *)
  (match Session.restore (session_cfg 0) ~now:(q 1) blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored another node's snapshot");
  let spec3cfg =
    { (Session.default_config ~me:1 ~spec:spec3) with Session.lossy = true }
  in
  (match Session.restore spec3cfg ~now:(q 1) blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored under a different system spec");
  (* total under truncation *)
  for len = 0 to String.length blob - 1 do
    match Session.restore (session_cfg 1) ~now:(q 1) (String.sub blob 0 len)
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes restored" len
    | exception e ->
      Alcotest.failf "prefix of %d bytes raised %s" len (Printexc.to_string e)
  done

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "fault"
    [
      ( "store",
        [
          Alcotest.test_case "save/load round trip" `Quick test_store_round_trip;
          Alcotest.test_case "fuzz: truncation, bit flips, junk" `Quick
            test_store_fuzz;
          Alcotest.test_case "node mismatch refused" `Quick
            test_store_node_mismatch;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "schedule shape" `Quick test_chaos_schedule;
          Alcotest.test_case "link churn shape" `Quick test_link_churn_schedule;
          Alcotest.test_case "pinned schedules" `Quick test_chaos_pinned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "chaos run stays sound" `Quick test_chaos_run_sound;
          Alcotest.test_case "a crash keeps its verdicts" `Quick
            test_crash_keeps_verdicts;
          Alcotest.test_case "join/leave churn stays sound" `Quick
            test_churn_join_leave;
          Alcotest.test_case "partition stays sound" `Quick test_partition_sound;
          Alcotest.test_case "partition takes no checkpoints" `Quick
            test_partition_no_checkpoints;
          Alcotest.test_case "severed edge surfaces as loss" `Quick
            test_severed_edge_lost;
          Alcotest.test_case "edge churn stays sound" `Quick
            test_churn_scenario_sound;
          Alcotest.test_case "faults + validate refused" `Quick
            test_faults_refuse_validate;
          Alcotest.test_case "churn + validate refused" `Quick
            test_churn_refuses_validate;
        ] );
      ( "session",
        [
          Alcotest.test_case "restart from checkpoint" `Quick
            test_session_restart;
          Alcotest.test_case "restore is total" `Quick test_session_restore_total;
        ] );
      qsuite "props" [ prop_recovery_equivalence ];
    ]
