(* Crash recovery: durable checkpoints and simulated fault injection.

   The efficient algorithm's state is small (Theorem 3.6: O(L^2 + K1 D)),
   which makes checkpointing practical: a node can persist its whole
   synchronization state — knowledge frontiers, history buffer, live-point
   distance matrix — and resume after a crash as if nothing happened.

   Part 1 walks the durable path by hand: snapshot a client mid-run, save
   it through [Fault.Store] (atomic tmp-write + rename + checksum), drop
   the instance, load the file back and restore.  Part 2 lets the
   simulator do the crashing: a scenario with injected crash/restart
   events runs under write-ahead checkpointing, and the metrics stream
   counts the checkpoints, crashes and recoveries.

   Run with:  dune exec examples/recovery.exe *)

let q = Q.of_int

(* a local reading of [n] seconds, in ticks *)
let secs n = n * System_spec.ticks_per_second

let spec =
  System_spec.uniform ~n:2 ~source:0
    ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1) ]

let part1_durable_store () =
  Format.printf "== 1. durable recovery through Fault.Store ==@.@.";
  let server = Csa.create spec ~me:0 ~lt0:0 in
  let client = Csa.create spec ~me:1 ~lt0:0 in

  (* a few round trips to build up interesting state *)
  let msg = ref 0 in
  for i = 1 to 5 do
    let t0 = 20 * i in
    incr msg;
    let m1 = Csa.send server ~dst:1 ~msg:!msg ~lt:(secs t0) in
    Csa.receive client ~msg:!msg ~lt:(secs (t0 + 3)) m1;
    incr msg;
    let m2 = Csa.send client ~dst:0 ~msg:!msg ~lt:(secs (t0 + 4)) in
    Csa.receive server ~msg:!msg ~lt:(secs (t0 + 8)) m2
  done;
  Format.printf "after 5 round trips, client estimate: %s@."
    (Interval.to_string_approx (Csa.estimate client));

  (* checkpoint durably: one file per node, written atomically *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "clocksync_recovery_ex"
  in
  let store = Fault.Store.create ~dir ~node:1 in
  let blob = Csa.snapshot client in
  Fault.Store.save store blob;
  Format.printf "checkpointed %d bytes to %s@." (String.length blob)
    (Fault.Store.path store);

  (* crash: the in-memory instance is gone; only the file survives *)
  let restored =
    match Fault.Store.load_result store with
    | Ok (Some blob) -> Csa.restore spec blob
    | Ok None -> failwith "no checkpoint on disk"
    | Error e -> failwith ("corrupt checkpoint: " ^ e)
  in
  Format.printf "restored estimate:            %s@."
    (Interval.to_string_approx (Csa.estimate restored));
  Format.printf "identical to pre-crash state: %b@."
    (Interval.equal (Csa.estimate client) (Csa.estimate restored));

  (* the restored node keeps synchronizing seamlessly *)
  incr msg;
  let m = Csa.send server ~dst:1 ~msg:!msg ~lt:(secs 200) in
  Csa.receive restored ~msg:!msg ~lt:(secs 202) m;
  Format.printf "after one more message, restored client: %s@."
    (Interval.to_string_approx (Csa.estimate restored));
  Format.printf "live points: %d, history entries: %d — still bounded.@.@."
    (Csa.live_count restored)
    (Csa.history_size restored);
  Fault.Store.wipe store

let part2_injected_faults () =
  Format.printf "== 2. crash/restart injection in the simulator ==@.@.";
  (* a 4-node star polling the source; node 2 crashes at 5 s and comes
     back from its checkpoint at 9 s.  Faults force lossy mode — the
     crash surfaces to peers as message losses, which the Section 3.3
     machinery already absorbs — and every node checkpoints write-ahead:
     before each send, and after each receive before its ack, so a
     restart can only ever re-report or re-receive. *)
  let star = System_spec.uniform ~n:4 ~source:0
      ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 5))
      ~links:(Topology.star 4)
  in
  let r, m =
    Ex_common.run
      {
        (Scenario.default ~spec:star
           ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
        with
        Scenario.duration = Scenario.sec 15;
        seed = 11;
        faults =
          [
            Fault.Injection.Crash { at = Scenario.sec 5; node = 2 };
            Fault.Injection.Restart { at = Scenario.sec 9; node = 2 };
          ];
      }
  in
  Format.printf
    "crashes: %d, recoveries: %d, checkpoints: %d (%d bytes total)@."
    (Metrics.crashes m) (Metrics.recoveries m) (Metrics.checkpoints m)
    (Metrics.checkpoint_bytes m);
  Format.printf "soundness failures: %d (crash recovery loses nothing)@.@."
    r.Engine.soundness_failures;
  Ex_common.print_node_resources r;
  Format.printf
    "@.node p2's estimate survives the crash: the restart resumes from@.\
     its last write-ahead checkpoint and the re-reporting machinery@.\
     re-synchronizes it against the unaffected peers.@."

let () =
  Format.printf "== crash recovery from state snapshots ==@.@.";
  part1_durable_store ();
  part2_injected_faults ()
