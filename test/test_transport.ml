(* Tests for the simulator's links: delay policies stay within the link's
   transit bounds, the FIFO clamp forbids overtaking per directed link
   (the paper's FIFO-link assumption), and the Bernoulli loss gate
   behaves at the extremes and never lets a loss disturb the clamp. *)

let q = Q.of_int
let qq = Alcotest.testable Q.pp Q.equal

let spec ?(lo = q 2) ?(hi = Ext.Fin (q 10)) () =
  System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.make ~lo ~hi)
    ~links:[ (0, 1); (1, 2) ]

let transport ?(loss_prob = 0.) ?(detect_delay = q 1) ?(s = spec ()) ~rng
    delay =
  Transport.create s ~rng ~delay ~loss_prob ~detect_delay

let deliver_at = function
  | Transport.Deliver_at at -> at
  | Transport.Lost _ -> Alcotest.fail "unexpected loss"

let test_min_max () =
  let rng = Rng.create 1 in
  let tmin = transport ~rng `Min in
  let tmax = transport ~rng `Max in
  Alcotest.check qq "min = now + lo" (q 7)
    (deliver_at (Transport.send tmin ~now:(q 5) ~seq:1 ~src:0 ~dst:1));
  Alcotest.check qq "max = now + hi" (q 15)
    (deliver_at (Transport.send tmax ~now:(q 5) ~seq:1 ~src:0 ~dst:1))

let test_alternate_parity () =
  (* odd send attempts draw the slow extreme, even ones the fast — the
     adversarial round-trip pattern of the optimality argument.  Sends
     are spaced past the slow extreme so the FIFO clamp stays idle. *)
  let rng = Rng.create 1 in
  let t = transport ~rng `Alternate in
  Alcotest.check qq "seq 1 is slow" (q 10)
    (deliver_at (Transport.send t ~now:Q.zero ~seq:1 ~src:0 ~dst:1));
  Alcotest.check qq "seq 2 is fast" (q 22)
    (deliver_at (Transport.send t ~now:(q 20) ~seq:2 ~src:0 ~dst:1));
  Alcotest.check qq "seq 3 is slow again" (q 50)
    (deliver_at (Transport.send t ~now:(q 40) ~seq:3 ~src:0 ~dst:1))

let test_infinite_hi_fallback () =
  (* an asynchronous link has no finite hi; bounded policies fall back to
     lo + 1 so the simulation still makes progress *)
  let rng = Rng.create 1 in
  let t = transport ~s:(spec ~hi:Ext.Inf ()) ~rng `Max in
  Alcotest.check qq "max on async link = lo + 1" (q 3)
    (deliver_at (Transport.send t ~now:Q.zero ~seq:1 ~src:0 ~dst:1))

let test_unknown_link_rejected () =
  let rng = Rng.create 1 in
  let t = transport ~rng `Min in
  match Transport.send t ~now:Q.zero ~seq:1 ~src:0 ~dst:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "send on a non-link must raise Invalid_argument"

let test_policy_bounds () =
  (* every random draw stays within [now + lo, now + hi] *)
  let check_policy delay name =
    let rng = Rng.create 42 in
    let t = transport ~rng delay in
    for i = 1 to 200 do
      let now = q i in
      let at = deliver_at (Transport.send t ~now ~seq:i ~src:1 ~dst:2) in
      if Q.compare at (Q.add now (q 2)) < 0 then
        Alcotest.failf "%s: arrival before now + lo" name;
      if Q.compare at (Q.add now (q 10)) > 0 then
        Alcotest.failf "%s: arrival after now + hi" name
    done
  in
  check_policy `Uniform "uniform";
  check_policy (`Capped (q 3)) "capped"

let test_capped_bound () =
  let rng = Rng.create 7 in
  let t = transport ~rng (`Capped (q 3)) in
  for i = 1 to 200 do
    let at = deliver_at (Transport.send t ~now:Q.zero ~seq:i ~src:0 ~dst:1) in
    if Q.compare at (q 5) > 0 then
      Alcotest.fail "capped draw exceeded lo + cap"
  done

let test_fifo_clamps_overtaking () =
  (* Alternate gives the first message the slow extreme and the second
     the fast one; sent back to back, the second would overtake — the
     FIFO clamp must hold it behind the first *)
  let rng = Rng.create 1 in
  let t = transport ~rng `Alternate in
  Alcotest.check qq "first arrives slow" (q 10)
    (deliver_at (Transport.send t ~now:Q.zero ~seq:1 ~src:0 ~dst:1));
  Alcotest.check qq "second clamped behind it" (q 10)
    (deliver_at (Transport.send t ~now:Q.zero ~seq:2 ~src:0 ~dst:1));
  (* independent links are not coupled by the clamp *)
  Alcotest.check qq "other link unaffected" (q 2)
    (deliver_at (Transport.send t ~now:Q.zero ~seq:4 ~src:1 ~dst:2));
  (* the reverse direction is its own FIFO stream *)
  Alcotest.check qq "reverse direction unaffected" (q 2)
    (deliver_at (Transport.send t ~now:Q.zero ~seq:6 ~src:1 ~dst:0))

let test_arrivals_as_drawn () =
  (* no arrival moves onto anyone's ticks (readings are floored where
     they are taken, DESIGN.md Section 4): off-tick send instants keep
     the extremes exact, and a link with lo = hi delivers at now + lo *)
  List.iter
    (fun (delay, name, check) ->
      let t = transport ~rng:(Rng.create 9) delay in
      for i = 1 to 100 do
        let now = Q.of_ints (100 * i) 7 in
        let at = deliver_at (Transport.send t ~now ~seq:i ~src:0 ~dst:1) in
        if not (check ~now ~seq:i at) then
          Alcotest.failf "%s: arrival %d at %s" name i (Q.to_string at)
      done)
    [ (`Uniform, "uniform",
       fun ~now ~seq:_ at -> Q.(at >= add now (q 2) && at <= add now (q 10)));
      (`Min, "min", fun ~now ~seq:_ at -> Q.equal at (Q.add now (q 2)));
      (`Max, "max", fun ~now ~seq:_ at -> Q.equal at (Q.add now (q 10)));
      (`Alternate, "alternate",
       fun ~now ~seq at -> Q.equal at (Q.add now (q (if seq mod 2 = 0 then 2 else 10))));
    ];
  let exact = spec ~hi:(Ext.Fin (q 2)) () in
  let t = transport ~s:exact ~rng:(Rng.create 9) `Uniform in
  Alcotest.check qq "lo = hi keeps now + lo" (Q.add (Q.of_ints 1 7) (q 2))
    (deliver_at (Transport.send t ~now:(Q.of_ints 1 7) ~seq:1 ~src:0 ~dst:1))

let test_lossy_extremes () =
  let rng = Rng.create 3 in
  let never = transport ~rng `Min in
  for i = 1 to 100 do
    ignore (deliver_at (Transport.send never ~now:(q i) ~seq:i ~src:0 ~dst:1))
  done;
  let always = transport ~loss_prob:1. ~detect_delay:(q 4) ~rng `Min in
  for i = 1 to 100 do
    match Transport.send always ~now:(q i) ~seq:i ~src:0 ~dst:1 with
    | Transport.Lost { detect_at } ->
      Alcotest.check qq "detected detect_delay after send"
        (Q.add (q i) (q 4))
        detect_at
    | Transport.Deliver_at _ -> Alcotest.fail "loss_prob 1 must lose"
  done

let test_loss_does_not_advance_fifo () =
  (* a lost message's far-future detect time must not be mistaken for
     an arrival by the clamp *)
  let rng = Rng.create 5 in
  let t =
    transport ~loss_prob:0.5 ~detect_delay:(q 100000) ~rng `Uniform
  in
  let last = ref Q.zero in
  for i = 1 to 300 do
    let now = q i in
    match Transport.send t ~now ~seq:i ~src:0 ~dst:1 with
    | Transport.Lost _ -> ()
    | Transport.Deliver_at at ->
      if Q.compare at !last < 0 then Alcotest.fail "overtaking under loss";
      if Q.compare at (Q.add now (q 10)) > 0 then
        Alcotest.fail "loss detect time leaked into the FIFO clamp";
      last := at
  done

(* Property: with random sends across every link
   and direction, deliveries never overtake per directed link and always
   respect the transit lower bound. *)
let prop_fifo_per_link =
  QCheck.Test.make ~name:"transport: stock stack is FIFO per directed link"
    ~count:100
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 60) (int_bound 3)))
    (fun (seed, picks) ->
      let rng = Rng.create (seed + 1) in
      let t = transport ~loss_prob:0.2 ~detect_delay:(q 3) ~rng `Uniform in
      let links = [| (0, 1); (1, 0); (1, 2); (2, 1) |] in
      let last = Hashtbl.create 8 in
      let ok = ref true in
      List.iteri
        (fun i pick ->
          let src, dst = links.(pick) in
          let now = q i in
          match Transport.send t ~now ~seq:(i + 1) ~src ~dst with
          | Transport.Lost { detect_at } ->
            if Q.compare detect_at now <= 0 then ok := false
          | Transport.Deliver_at at ->
            if Q.compare at (Q.add now (q 2)) < 0 then ok := false;
            (match Hashtbl.find_opt last (src, dst) with
            | Some prev when Q.compare at prev < 0 -> ok := false
            | _ -> ());
            Hashtbl.replace last (src, dst) at)
        picks;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "transport"
    [
      ( "policy",
        [
          Alcotest.test_case "min and max extremes" `Quick test_min_max;
          Alcotest.test_case "alternate parity" `Quick test_alternate_parity;
          Alcotest.test_case "infinite hi fallback" `Quick
            test_infinite_hi_fallback;
          Alcotest.test_case "unknown link rejected" `Quick
            test_unknown_link_rejected;
          Alcotest.test_case "random draws within bounds" `Quick
            test_policy_bounds;
          Alcotest.test_case "capped bound" `Quick test_capped_bound;
          Alcotest.test_case "arrivals as drawn" `Quick test_arrivals_as_drawn;
        ] );
      (* the group keeps its name so test ids stay stable; the laws it
         holds are the clamp and the loss gate of [Transport.send] *)
      ( "decorators",
        [
          Alcotest.test_case "fifo clamps overtaking" `Quick
            test_fifo_clamps_overtaking;
          Alcotest.test_case "lossy extremes" `Quick test_lossy_extremes;
          Alcotest.test_case "loss does not advance fifo" `Quick
            test_loss_does_not_advance_fifo;
        ] );
      qsuite "props" [ prop_fifo_per_link ];
    ]
