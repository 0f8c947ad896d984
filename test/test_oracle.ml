(* Tests for the AGDP structure against its naive reference: the
   Floyd–Warshall [Fw_oracle] must agree with the incremental [Agdp] on
   random executions (the Lemma 3.4 invariant, checked across
   implementations), snapshots must be portable between the two, and
   [Csa]'s [validate] shadow must cross-check a live run without
   changing it. *)

let q = Q.of_int
let ext = Alcotest.testable Ext.pp Ext.equal
let fin n = Ext.Fin (q n)

(* a reading of [n] seconds, in ticks *)
let secs n = n * System_spec.ticks_per_second

(* The two implementations behind one record of closures, so every case
   below runs unchanged against both. *)
type oracle = {
  insert :
    key:int -> in_edges:(int * int) list -> out_edges:(int * int) list -> unit;
  kill : int -> unit;
  mem : int -> bool;
  dist : int -> int -> Ext.t;
  size : unit -> int;
  live_keys : unit -> int list;
  snapshot : unit -> Agdp.snapshot;
}

let of_agdp a =
  {
    insert = Agdp.insert a;
    kill = Agdp.kill a;
    mem = Agdp.mem a;
    dist = Agdp.dist a;
    size = (fun () -> Agdp.size a);
    live_keys = (fun () -> Agdp.live_keys a);
    snapshot = (fun () -> Agdp.snapshot a);
  }

(* [Fw_oracle] keeps exact values; its side of the portability check
   reads its live-pair distances onto the D = 1 lattice the cases below
   use (every weight there is an integer) *)
let fw_snapshot f =
  let keys = Array.of_list (Fw_oracle.live_keys f) in
  let n = Array.length keys in
  let cell x =
    match Fw_oracle.dist f keys.(x / n) keys.(x mod n) with
    | Ext.Inf -> max_int
    | Ext.Fin d -> Option.get (Bigint.to_int_opt (Q.num d))
  in
  {
    Agdp.s_scale = 1;
    s_keys = keys;
    s_cells = Array.init (n * n) cell;
    s_relaxations = Fw_oracle.relaxations f;
    s_peak = Fw_oracle.peak_size f;
  }

let of_fw f =
  {
    insert = Fw_oracle.insert f;
    kill = Fw_oracle.kill f;
    mem = Fw_oracle.mem f;
    dist = Fw_oracle.dist f;
    size = (fun () -> Fw_oracle.size f);
    live_keys = (fun () -> Fw_oracle.live_keys f);
    snapshot = (fun () -> fw_snapshot f);
  }

(* name, create, restore *)
let impls =
  [
    ( "agdp",
      (fun () -> of_agdp (Agdp.create ~scale:1 ())),
      fun s -> of_agdp (Agdp.restore s) );
    ( "fw",
      (fun () -> of_fw (Fw_oracle.create ~scale:1 ())),
      fun s -> of_fw (Fw_oracle.restore s) );
  ]

(* run the same scenario against every implementation *)
let each_impl f = List.iter (fun (name, create, _) -> f name (create ())) impls

let test_chain () =
  each_impl (fun name t ->
      t.insert ~key:0 ~in_edges:[] ~out_edges:[];
      t.insert ~key:1 ~in_edges:[ (0, 3) ] ~out_edges:[ (0, 5) ];
      t.insert ~key:2 ~in_edges:[ (1, 2) ] ~out_edges:[ (1, 7) ];
      Alcotest.check ext (name ^ ": 0->2") (fin 5) (t.dist 0 2);
      Alcotest.check ext (name ^ ": 2->0") (fin 12) (t.dist 2 0);
      Alcotest.(check (list int)) (name ^ ": live keys") [ 0; 1; 2 ]
        (t.live_keys ()))

let test_kill_preserves_relay () =
  (* the killed node stays a relay: live-pair distances through it
     survive (Lemma 3.4) in both implementations *)
  each_impl (fun name t ->
      t.insert ~key:0 ~in_edges:[] ~out_edges:[];
      t.insert ~key:1 ~in_edges:[ (0, 3) ] ~out_edges:[];
      t.insert ~key:2 ~in_edges:[ (1, 2) ] ~out_edges:[];
      t.kill 1;
      Alcotest.(check int) (name ^ ": size") 2 (t.size ());
      Alcotest.check ext (name ^ ": relay path survives") (fin 5) (t.dist 0 2);
      Alcotest.(check bool) (name ^ ": dead not mem") false (t.mem 1))

let test_unreachable () =
  each_impl (fun name t ->
      t.insert ~key:0 ~in_edges:[] ~out_edges:[];
      t.insert ~key:1 ~in_edges:[] ~out_edges:[];
      Alcotest.check ext (name ^ ": disconnected") Ext.Inf (t.dist 0 1))

let test_negative_cycle_exception_safety () =
  each_impl (fun name t ->
      t.insert ~key:0 ~in_edges:[] ~out_edges:[];
      t.insert ~key:1 ~in_edges:[ (0, 2) ] ~out_edges:[ (0, 9) ];
      Alcotest.check_raises
        (name ^ ": negative cycle")
        Agdp.Negative_cycle
        (fun () ->
          t.insert ~key:2 ~in_edges:[ (1, 1) ] ~out_edges:[ (0, -20) ]);
      (* the rejected key must be fully rolled back and reusable *)
      Alcotest.(check bool) (name ^ ": not half-inserted") false (t.mem 2);
      Alcotest.(check int) (name ^ ": size unchanged") 2 (t.size ());
      Alcotest.check ext (name ^ ": dists unchanged") (fin 2) (t.dist 0 1);
      t.insert ~key:2 ~in_edges:[ (1, 1) ] ~out_edges:[];
      Alcotest.check ext (name ^ ": reuse after rejection") (fin 3)
        (t.dist 0 2))

let test_killed_key_reusable () =
  (* Agdp forgets killed keys, so re-inserting one is legal; the
     reference must agree or [Csa]'s validate shadow would diverge *)
  each_impl (fun name t ->
      t.insert ~key:0 ~in_edges:[] ~out_edges:[];
      t.insert ~key:7 ~in_edges:[ (0, 1) ] ~out_edges:[];
      t.kill 7;
      t.insert ~key:7 ~in_edges:[ (0, 4) ] ~out_edges:[];
      Alcotest.check ext (name ^ ": fresh incarnation wins shorter path")
        (fin 4)
        (* 0 -> old 7 was 1, but old 7 is dead; new 7 is reached directly
           at 4 (the relay can't help: it had no out-edges) *)
        (t.dist 0 7))

let test_snapshot_cross_restore () =
  (* a snapshot taken from either implementation restores onto the other
     with identical live sets and distances *)
  let build t =
    t.insert ~key:0 ~in_edges:[] ~out_edges:[];
    t.insert ~key:1 ~in_edges:[ (0, 3) ] ~out_edges:[ (0, 5) ];
    t.insert ~key:2 ~in_edges:[ (1, 2) ] ~out_edges:[ (1, 7) ];
    t.kill 1
  in
  List.iter
    (fun (from_name, from_create, _) ->
      List.iter
        (fun (to_name, _, to_restore) ->
          let a = from_create () in
          build a;
          let b = to_restore (a.snapshot ()) in
          let label = Printf.sprintf "%s -> %s" from_name to_name in
          Alcotest.(check (list int))
            (label ^ ": live keys") (a.live_keys ()) (b.live_keys ());
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  Alcotest.check ext
                    (Printf.sprintf "%s: d(%d,%d)" label x y)
                    (a.dist x y) (b.dist x y))
                (a.live_keys ()))
            (a.live_keys ());
          (* the restored instance keeps working *)
          b.insert ~key:9 ~in_edges:[ (0, 1) ] ~out_edges:[];
          Alcotest.check ext (label ^ ": post-restore insert") (fin 1)
            (b.dist 0 9))
        impls)
    impls

let test_validate_negative_cycle () =
  (* a reply that comes back sooner than two minimum transits allow
     contradicts the declared bounds; under [validate] both structures
     reject the receive, and the caller sees the same Negative_cycle as
     without the shadow, not a divergence Failure *)
  let spec =
    System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (q 1) (q 5))
      ~links:[ (0, 1) ]
  in
  List.iter
    (fun validate ->
      let a = Csa.create ~validate spec ~me:0 ~lt0:(secs 0) in
      let b = Csa.create ~validate spec ~me:1 ~lt0:(secs 0) in
      Csa.receive b ~msg:1 ~lt:(secs 100) (Csa.send a ~dst:1 ~msg:1 ~lt:(secs 10));
      let reply = Csa.send b ~dst:0 ~msg:2 ~lt:(secs 101) in
      Alcotest.check_raises
        (Printf.sprintf "validate=%b" validate)
        Agdp.Negative_cycle
        (fun () -> Csa.receive a ~msg:2 ~lt:(secs 11) reply))
    [ false; true ]

(* Property: a random insert/kill schedule gives identical live sets and
   distances on both implementations at every step. *)
let arbitrary_schedule =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 20)
        (pair
           (pair (list_size (int_range 0 3) (int_range 0 100))
              (list_size (int_range 0 3) (int_range 0 100)))
           (int_range 0 100)))
  in
  make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (fun ((i, o), k) ->
             Printf.sprintf "ins(in:%s out:%s kill:%d)"
               (String.concat "," (List.map string_of_int i))
               (String.concat "," (List.map string_of_int o))
               k)
           ops))
    gen

let run_schedule t ops =
  let live = ref [] in
  let n_nodes = ref 0 in
  List.iter
    (fun ((ins, outs), kill_pick) ->
      let k = !n_nodes in
      incr n_nodes;
      let pick targets =
        List.filter_map
          (fun r ->
            match !live with
            | [] -> None
            | l -> Some (List.nth l (r mod List.length l)))
          targets
      in
      let in_nodes = List.sort_uniq compare (pick ins) in
      let out_nodes = List.sort_uniq compare (pick outs) in
      let in_edges = List.map (fun x -> (x, (x + k) mod 7)) in_nodes in
      let out_edges =
        List.map (fun y -> (y, (y + (2 * k)) mod 5)) out_nodes
      in
      t.insert ~key:k ~in_edges ~out_edges;
      live := k :: !live;
      (* kill a pseudo-random live node now and then *)
      if kill_pick mod 3 = 0 && List.length !live > 1 then begin
        let victim = List.nth !live (kill_pick mod List.length !live) in
        t.kill victim;
        live := List.filter (fun x -> x <> victim) !live
      end)
    ops

let prop_impls_agree =
  QCheck.Test.make ~name:"oracle: agdp and floyd-warshall agree" ~count:100
    arbitrary_schedule (fun ops ->
      let a = of_agdp (Agdp.create ~scale:1 ()) in
      let b = of_fw (Fw_oracle.create ~scale:1 ()) in
      run_schedule a ops;
      run_schedule b ops;
      let ka = a.live_keys () and kb = b.live_keys () in
      ka = kb
      && List.for_all
           (fun x ->
             List.for_all (fun y -> Ext.equal (a.dist x y) (b.dist x y)) ka)
           ka)

(* an end-to-end run with the oracle cross-check live on every insert *)
let validate_scenario ?(trace = Trace.null) ?(prof = Prof.null)
    ?(validate_oracle = true) () =
  let spec =
    System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.star 3)
  in
  {
    (Scenario.default ~spec
       ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
    with
    Scenario.duration = Scenario.sec 6;
    validate = true;
    validate_oracle;
    trace;
    prof;
    seed = 17;
  }

let jsonl_digest run =
  let path = Filename.temp_file "oracle" ".jsonl" in
  let oc = open_out path in
  let r = run (Trace.jsonl oc) in
  close_out oc;
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  (r, digest)

let test_engine_validate_oracle () =
  let r, digest =
    jsonl_digest (fun trace -> Engine.run (validate_scenario ~trace ()))
  in
  let _, unchecked =
    jsonl_digest (fun trace ->
        Engine.run (validate_scenario ~trace ~validate_oracle:false ()))
  in
  Alcotest.(check (option int))
    "no estimate divergence" (Some 0) r.Engine.validation_failures;
  Alcotest.(check int) "sound" 0 r.Engine.soundness_failures;
  Alcotest.(check bool) "messages flowed" true (r.Engine.messages_sent > 0);
  (* the cross-check must change nothing a run emits *)
  Alcotest.(check string) "same trace with the check off" unchecked digest;
  (* re-recorded when timestamps became one varint each: only the 24
     [send] lines' [bytes] moved (1492 → 940 in all) *)
  Alcotest.(check string)
    "trace digest" "00b9aafe9626684f7ba4784c8a917c9a" digest

(* A multi-neighbor run: every node of a gossip ring inserts receives
   from two neighbors, and the Floyd-Warshall shadow re-checks all live
   distances after every insert and kill (Csa raises on the first
   divergence, and Agdp on any weight off its lattice). *)
let test_gossip_ring_validate_oracle () =
  let spec =
    System_spec.uniform ~n:8 ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.ring 8)
  in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Gossip { mean_gap = Scenario.ms 20 }))
        with
        Scenario.duration = Scenario.ms 600;
        validate_oracle = true;
        seed = 7;
      }
  in
  Alcotest.(check int) "sound" 0 r.Engine.soundness_failures;
  Alcotest.(check bool) "messages flowed" true (r.Engine.messages_sent > 10)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "oracle"
    [
      ( "unit",
        [
          Alcotest.test_case "chain distances" `Quick test_chain;
          Alcotest.test_case "kill preserves relay paths" `Quick
            test_kill_preserves_relay;
          Alcotest.test_case "unreachable is infinite" `Quick test_unreachable;
          Alcotest.test_case "negative-cycle exception safety" `Quick
            test_negative_cycle_exception_safety;
          Alcotest.test_case "killed keys reusable" `Quick
            test_killed_key_reusable;
          Alcotest.test_case "snapshot crosses implementations" `Quick
            test_snapshot_cross_restore;
          Alcotest.test_case "validate re-raises Negative_cycle" `Quick
            test_validate_negative_cycle;
          Alcotest.test_case "engine with validate_oracle" `Slow
            test_engine_validate_oracle;
          Alcotest.test_case "gossip ring with validate_oracle" `Slow
            test_gossip_ring_validate_oracle;
        ] );
      qsuite "props" [ prop_impls_agree ];
    ]
