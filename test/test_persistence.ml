(* Persistence torture tests.  Two obligations from Section 3's
   implementation notes: [Csa.snapshot]/[Csa.restore] must round-trip the
   full protocol state — including lossy-mode pending sends and
   known-lost messages — and every corrupt blob must be rejected with a
   clean [Failure], never an [Invalid_argument] escaping from a blit or
   a giant allocation from a lied-about length prefix. *)

let q = Q.of_int

let spec2 =
  System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1) ]

(* Drive a two-node execution from a little script: round [i] sends
   a → b and then, per the script value, delivers, loses, or leaves the
   message in flight; even values add a b → a reply that can itself stay
   in flight.  This populates every snapshot section: history, frontiers,
   inflight retransmission records, pending sends, and the lost set.

   The links are FIFO and loss detection reaches the sender before its
   next send, so a message can only be delivered if every earlier
   message on its link was delivered, or declared lost before the later
   one was sent.  A link with a still-in-flight message therefore
   blocks: later sends on it stay in flight too. *)
let run_script ~lossy script =
  let nodes =
    [|
      Csa.create ~lossy spec2 ~me:0 ~lt0:(q 0);
      Csa.create ~lossy spec2 ~me:1 ~lt0:(q 0);
    |]
  in
  let msg = ref 0 in
  (* per directed link (0: a → b, 1: b → a), undelivered msgs oldest first *)
  let in_flight = [| []; [] |] in
  let lose m =
    Csa.on_msg_lost nodes.(0) ~msg:m;
    Csa.on_msg_lost nodes.(1) ~msg:m
  in
  let transmit ~link ~src ~dst ~send_lt ~recv_lt op =
    incr msg;
    let m = !msg in
    let p = Csa.send nodes.(src) ~dst ~msg:m ~lt:send_lt in
    match op with
    | `Deliver when in_flight.(link) <> [] ->
      (* would overtake an undelivered predecessor on the FIFO link *)
      in_flight.(link) <- in_flight.(link) @ [ m ]
    | `Deliver ->
      Csa.receive nodes.(dst) ~msg:m ~lt:recv_lt p;
      Csa.on_msg_delivered nodes.(src) ~msg:m
    | `Lose when lossy -> lose m
    | `Lose | `In_flight -> in_flight.(link) <- in_flight.(link) @ [ m ]
  in
  List.iteri
    (fun i c ->
      let t0 = 20 * (i + 1) in
      let op =
        match c mod 3 with 0 -> `Deliver | 1 -> `Lose | _ -> `In_flight
      in
      transmit ~link:0 ~src:0 ~dst:1 ~send_lt:(q t0) ~recv_lt:(q (t0 + 3)) op;
      if c mod 2 = 0 then
        transmit ~link:1 ~src:1 ~dst:0 ~send_lt:(q (t0 + 4))
          ~recv_lt:(q (t0 + 8))
          (if c mod 4 = 0 then `Deliver else `In_flight))
    script;
  (nodes.(0), nodes.(1))

let round_trips csa =
  let blob = Csa.snapshot csa in
  let r = Csa.restore spec2 blob in
  Interval.equal (Csa.estimate csa) (Csa.estimate r)
  && Csa.live_count csa = Csa.live_count r
  && Csa.history_size csa = Csa.history_size r
  && Csa.events_processed csa = Csa.events_processed r
  && Q.(Csa.last_lt csa = Csa.last_lt r)
  (* snapshots are canonical: restore-then-snapshot is the identity *)
  && Csa.snapshot r = blob

let arbitrary_script =
  QCheck.(pair bool (list_of_size (Gen.int_range 1 12) (int_range 0 11)))

let prop_snapshot_round_trip =
  QCheck.Test.make
    ~name:"persistence: snapshot/restore round-trips (incl. lossy traffic)"
    ~count:100 arbitrary_script (fun (lossy, script) ->
      let a, b = run_script ~lossy script in
      round_trips a && round_trips b)

(* --- corruption ----------------------------------------------------- *)

(* a state with delivered, lost, and still-pending traffic in both
   directions (two of b's own sends are in flight at snapshot time) *)
let fixture_blob () =
  let _, b = run_script ~lossy:true [ 0; 1; 4; 3; 2; 6 ] in
  Csa.snapshot b

let test_truncated_blobs () =
  let blob = fixture_blob () in
  Alcotest.(check bool) "fixture is restorable" true
    (Csa.snapshot (Csa.restore spec2 blob) = blob);
  for len = 0 to String.length blob - 1 do
    match Csa.restore spec2 (String.sub blob 0 len) with
    | exception Failure _ -> ()
    | exception e ->
      Alcotest.failf "prefix of %d bytes: unexpected exception %s" len
        (Printexc.to_string e)
    | _ -> Alcotest.failf "prefix of %d bytes: restore succeeded" len
  done

let test_bit_flipped_blobs () =
  let blob = fixture_blob () in
  for i = 0 to String.length blob - 1 do
    for bit = 0 to 7 do
      let m = Bytes.of_string blob in
      Bytes.set m i (Char.chr (Char.code blob.[i] lxor (1 lsl bit)));
      match Csa.restore spec2 (Bytes.to_string m) with
      | _ -> () (* a flip may land in slack the parser cannot see *)
      | exception Failure _ -> ()
      | exception e ->
        Alcotest.failf "flipped bit %d of byte %d: unexpected exception %s" bit
          i (Printexc.to_string e)
    done
  done

let test_payload_codec_fuzz () =
  let a = Csa.create spec2 ~me:0 ~lt0:(q 0) in
  let b = Csa.create spec2 ~me:1 ~lt0:(q 0) in
  let p1 = Csa.send a ~dst:1 ~msg:1 ~lt:(q 10) in
  Csa.receive b ~msg:1 ~lt:(q 8) p1;
  let wire = Codec.encode (Csa.send b ~dst:0 ~msg:2 ~lt:(q 9)) in
  Alcotest.(check bool) "decode inverts encode" true
    (Codec.encode (Codec.decode wire) = wire);
  for len = 0 to String.length wire - 1 do
    match Codec.decode (String.sub wire 0 len) with
    | exception Failure _ -> ()
    | exception e ->
      Alcotest.failf "prefix of %d bytes: unexpected exception %s" len
        (Printexc.to_string e)
    | _ -> Alcotest.failf "prefix of %d bytes: decode succeeded" len
  done;
  for i = 0 to String.length wire - 1 do
    for bit = 0 to 7 do
      let m = Bytes.of_string wire in
      Bytes.set m i (Char.chr (Char.code wire.[i] lxor (1 lsl bit)));
      match Codec.decode (Bytes.to_string m) with
      | _ -> ()
      | exception Failure _ -> ()
      | exception e ->
        Alcotest.failf "flipped bit %d of byte %d: unexpected exception %s" bit
          i (Printexc.to_string e)
    done
  done

let test_validated_restore_continues () =
  (* [~validate:true] adds a Floyd–Warshall shadow that cross-checks the
     restored distance matrix and every later mutation.  It must change
     nothing the instance does: a lossy run continues exactly as after a
     plain restore, down to the payload and snapshot bytes. *)
  let a, b = run_script ~lossy:true [ 0; 1; 4; 3; 2; 6 ] in
  let continue ~validate =
    let a = Csa.restore ~validate spec2 (Csa.snapshot a) in
    let b = Csa.restore ~validate spec2 (Csa.snapshot b) in
    List.iter
      (fun (m, _) ->
        Csa.on_msg_lost a ~msg:m;
        Csa.on_msg_lost b ~msg:m)
      (Csa.inflight a @ Csa.inflight b);
    let p = Csa.send a ~dst:1 ~msg:100 ~lt:(q 1000) in
    Csa.receive b ~msg:100 ~lt:(q 1003) p;
    Csa.on_msg_delivered a ~msg:100;
    let p' = Csa.send b ~dst:0 ~msg:101 ~lt:(q 1010) in
    Csa.receive a ~msg:101 ~lt:(q 1012) p';
    Csa.on_msg_delivered b ~msg:101;
    ( [ Codec.encode p; Codec.encode p'; Csa.snapshot a; Csa.snapshot b ],
      [ a; b ] )
  in
  let plain_bytes, plain = continue ~validate:false in
  let checked_bytes, checked = continue ~validate:true in
  Alcotest.(check (list string)) "same payloads and snapshots" plain_bytes
    checked_bytes;
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "estimates agree" true
        (Interval.equal (Csa.estimate x) (Csa.estimate y));
      let ids = Csa.live_event_ids x in
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              Alcotest.(check bool) "distances agree" true
                (Ext.equal (Csa.dist_between x i j) (Csa.dist_between y i j)))
            ids)
        ids)
    plain checked

let test_restore_continues_lossy () =
  (* one a → b message and one b → a reply, both still in flight; after
     restore, declaring them lost must trigger the exact same
     re-reporting on the restored instance as on the original *)
  let a, b = run_script ~lossy:true [ 2 ] in
  let a' = Csa.restore spec2 (Csa.snapshot a) in
  let b' = Csa.restore spec2 (Csa.snapshot b) in
  List.iter (fun csa -> Csa.on_msg_lost csa ~msg:1) [ a; a'; b; b' ];
  List.iter (fun csa -> Csa.on_msg_lost csa ~msg:2) [ a; a'; b; b' ];
  let p = Csa.send a ~dst:1 ~msg:3 ~lt:(q 100) in
  let p' = Csa.send a' ~dst:1 ~msg:3 ~lt:(q 100) in
  Alcotest.(check bool) "identical retransmission after restore" true
    (Codec.encode p = Codec.encode p');
  Csa.receive b ~msg:3 ~lt:(q 103) p;
  Csa.receive b' ~msg:3 ~lt:(q 103) p';
  Alcotest.(check bool) "estimates agree after the retransmission" true
    (Interval.equal (Csa.estimate b) (Csa.estimate b'))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "persistence"
    [
      ( "corruption",
        [
          Alcotest.test_case "truncated snapshots rejected" `Quick
            test_truncated_blobs;
          Alcotest.test_case "bit-flipped snapshots fail cleanly" `Quick
            test_bit_flipped_blobs;
          Alcotest.test_case "payload codec fuzz" `Quick test_payload_codec_fuzz;
          Alcotest.test_case "restore continues a lossy run" `Quick
            test_restore_continues_lossy;
          Alcotest.test_case "validated restore continues a lossy run" `Quick
            test_validated_restore_continues;
        ] );
      qsuite "props" [ prop_snapshot_round_trip ];
    ]
