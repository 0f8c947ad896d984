(* Unit and property tests for the exact-arithmetic substrate
   (Bigint, Q, Ext, Interval). *)

module B = Bigint
module I = Interval

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

let check_q msg expected actual =
  Alcotest.(check string) msg expected (Q.to_string actual)

(* --- Bigint unit tests -------------------------------------------------- *)

let test_bigint_basic () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "minus one" "-1" B.minus_one;
  check_b "of_int" "123456789" (B.of_int 123456789);
  check_b "of_int negative" "-42" (B.of_int (-42));
  check_b "max_int round trip" (string_of_int max_int) (B.of_int max_int);
  check_b "min_int round trip" (string_of_int min_int) (B.of_int min_int)

let test_bigint_string () =
  let cases =
    [ "0"; "1"; "-1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "-98765432109876543210987654321" ]
  in
  List.iter (fun s -> check_b s s (B.of_string s)) cases;
  check_b "leading plus" "17" (B.of_string "+17");
  check_b "leading zeros" "7" (B.of_string "007");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bigint.of_string: invalid character")
    (fun () -> ignore (B.of_string "12x3"))

let test_bigint_arith () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "987654321098765432109876543210" in
  check_b "add" "1111111110111111111011111111100" (B.add a b);
  check_b "sub" "-864197532086419753208641975320" (B.sub a b);
  check_b "mul"
    "121932631137021795226185032733622923332237463801111263526900"
    (B.mul a b);
  let q, r = B.divmod b a in
  check_b "div" "8" q;
  check_b "rem" "9000000000900000000090" r;
  (* divmod identity *)
  Alcotest.(check bool) "a = q*b + r" true
    (B.equal b (B.add (B.mul q a) r))

let test_bigint_divmod_signs () =
  (* truncated division: remainder takes the dividend's sign *)
  let dm a b =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    (B.to_int_exn q, B.to_int_exn r)
  in
  Alcotest.(check (pair int int)) "7/2" (3, 1) (dm 7 2);
  Alcotest.(check (pair int int)) "-7/2" (-3, -1) (dm (-7) 2);
  Alcotest.(check (pair int int)) "7/-2" (-3, 1) (dm 7 (-2));
  Alcotest.(check (pair int int)) "-7/-2" (3, -1) (dm (-7) (-2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_gcd () =
  let g a b = B.to_int_exn (B.gcd (B.of_int a) (B.of_int b)) in
  Alcotest.(check int) "gcd 12 18" 6 (g 12 18);
  Alcotest.(check int) "gcd 0 5" 5 (g 0 5);
  Alcotest.(check int) "gcd 5 0" 5 (g 5 0);
  Alcotest.(check int) "gcd -12 18" 6 (g (-12) 18);
  Alcotest.(check int) "gcd 0 0" 0 (g 0 0);
  Alcotest.(check int) "coprime" 1 (g 35 64)

let test_bigint_pow10 () =
  check_b "pow10 0" "1" (B.pow10 0);
  check_b "pow10 1" "10" (B.pow10 1);
  check_b "pow10 9" "1000000000" (B.pow10 9);
  check_b "pow10 20" "100000000000000000000" (B.pow10 20)

let test_bigint_to_int () =
  Alcotest.(check (option int)) "small" (Some 42) (B.to_int_opt (B.of_int 42));
  Alcotest.(check (option int)) "max_int" (Some max_int)
    (B.to_int_opt (B.of_int max_int));
  Alcotest.(check (option int)) "min_int" (Some min_int)
    (B.to_int_opt (B.of_int min_int));
  Alcotest.(check (option int)) "too big" None
    (B.to_int_opt (B.of_string "123456789012345678901234567890"));
  (* three limbs whose magnitude reaches Int64's sign bit: 2^63 and
     1.5·2^63 used to come back as min_int *)
  List.iter
    (fun s ->
      Alcotest.(check (option int)) s None (B.to_int_opt (B.of_string s)))
    [ "9223372036854775808"; "13835058055282163712"; "-13835058055282163712";
      "4611686018427387904" ];
  Alcotest.(check (option int)) "-2^62" (Some min_int)
    (B.to_int_opt (B.of_string "-4611686018427387904"))

(* --- Bigint properties -------------------------------------------------- *)

let arbitrary_bigint =
  (* mix small ints and big random decimal strings *)
  let open QCheck in
  let big =
    let gen =
      Gen.(
        map2
          (fun neg digits ->
            let s = String.concat "" (List.map string_of_int digits) in
            let s = if s = "" then "0" else s in
            B.of_string (if neg then "-" ^ s else s))
          bool
          (list_size (int_range 1 25) (int_range 0 9)))
    in
    make ~print:B.to_string gen
  in
  let small = QCheck.map ~rev:B.to_int_exn B.of_int QCheck.int in
  QCheck.oneof [ big; small ]

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint: of_string (to_string x) = x" ~count:500
    arbitrary_bigint (fun x -> B.equal (B.of_string (B.to_string x)) x)

let prop_add_comm =
  QCheck.Test.make ~name:"bigint: a+b = b+a" ~count:500
    QCheck.(pair arbitrary_bigint arbitrary_bigint)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"bigint: (a+b)+c = a+(b+c)" ~count:500
    QCheck.(triple arbitrary_bigint arbitrary_bigint arbitrary_bigint)
    (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)))

let prop_mul_comm =
  QCheck.Test.make ~name:"bigint: a*b = b*a" ~count:300
    QCheck.(pair arbitrary_bigint arbitrary_bigint)
    (fun (a, b) -> B.equal (B.mul a b) (B.mul b a))

let prop_distrib =
  QCheck.Test.make ~name:"bigint: a*(b+c) = a*b + a*c" ~count:300
    QCheck.(triple arbitrary_bigint arbitrary_bigint arbitrary_bigint)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod =
  QCheck.Test.make ~name:"bigint: divmod identity and remainder range"
    ~count:1000
    QCheck.(pair arbitrary_bigint arbitrary_bigint)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_small_matches_native =
  QCheck.Test.make ~name:"bigint: ops agree with native int on small values"
    ~count:1000
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
      let ba = B.of_int a and bb = B.of_int b in
      B.to_int_exn (B.add ba bb) = a + b
      && B.to_int_exn (B.sub ba bb) = a - b
      && B.to_int_exn (B.mul ba bb) = a * b
      && B.compare ba bb = compare a b)

let prop_gcd_divides =
  QCheck.Test.make ~name:"bigint: gcd divides both" ~count:300
    QCheck.(pair arbitrary_bigint arbitrary_bigint)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
      let g = B.gcd a b in
      B.is_zero (B.rem a g) && B.is_zero (B.rem b g) && B.sign g > 0)

(* --- Q unit tests -------------------------------------------------------- *)

let test_q_basic () =
  check_q "1/2" "1/2" (Q.of_ints 1 2);
  check_q "normalize" "1/2" (Q.of_ints 2 4);
  check_q "sign in denominator" "-1/2" (Q.of_ints 1 (-2));
  check_q "both negative" "1/2" (Q.of_ints (-1) (-2));
  check_q "integer shows as integer" "3" (Q.of_ints 6 2);
  check_q "zero normalizes den" "0" (Q.of_ints 0 17);
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Q.of_ints 1 0))

let test_q_arith () =
  check_q "add" "5/6" (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "sub" "1/6" (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "mul" "1/6" (Q.mul (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "div" "3/2" (Q.div (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "neg" "-1/2" (Q.neg (Q.of_ints 1 2));
  check_q "inv" "2" (Q.inv (Q.of_ints 1 2));
  check_q "inv negative" "-2" (Q.inv (Q.of_ints (-1) 2));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Q.inv Q.zero))

let test_q_decimal () =
  check_q "1.0001" "10001/10000" (Q.of_decimal_string "1.0001");
  check_q "-0.5" "-1/2" (Q.of_decimal_string "-0.5");
  check_q "plain int" "3" (Q.of_decimal_string "3");
  check_q "sci notation" "3/2000" (Q.of_decimal_string "1.5e-3");
  check_q "positive exponent" "1500" (Q.of_decimal_string "1.5e3");
  check_q "leading dot" "1/2" (Q.of_decimal_string ".5");
  check_q "ppm" "999999/1000000" (Q.of_decimal_string "0.999999")

let test_q_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true Q.(of_ints 1 2 < of_ints 2 3);
  Alcotest.(check bool) "-1/2 < 1/3" true Q.(of_ints (-1) 2 < of_ints 1 3);
  Alcotest.(check bool) "equal" true Q.(of_ints 2 4 = of_ints 1 2);
  Alcotest.(check bool) "min" true Q.(min (of_int 3) (of_int 5) = of_int 3);
  Alcotest.(check bool) "max" true Q.(max (of_int 3) (of_int 5) = of_int 5)

let arbitrary_q =
  let open QCheck in
  map ~rev:(fun q -> (B.to_int_exn (Q.num q), B.to_int_exn (Q.den q)))
    (fun (n, d) -> Q.of_ints n (if d = 0 then 1 else d))
    (pair (int_range (-1000000) 1000000) (int_range (-1000) 1000))

let prop_q_field =
  QCheck.Test.make ~name:"q: field laws on random rationals" ~count:500
    QCheck.(triple arbitrary_q arbitrary_q arbitrary_q)
    (fun (a, b, c) ->
      Q.(equal (add a b) (add b a))
      && Q.(equal (add (add a b) c) (add a (add b c)))
      && Q.(equal (mul a (add b c)) (add (mul a b) (mul a c)))
      && Q.(equal (sub a a) zero)
      && (Q.is_zero a || Q.(equal (mul a (inv a)) one)))

let prop_q_compare_antisym =
  QCheck.Test.make ~name:"q: compare is antisymmetric" ~count:500
    QCheck.(pair arbitrary_q arbitrary_q)
    (fun (a, b) -> Q.compare a b = -Q.compare b a)

(* [div_pow10] strips factors of 2 and 5 where [make_ints] runs a gcd:
   the same normalized rational (terms and enclosure), at every sign,
   exponent and magnitude, [min_int] included *)
let prop_q_div_pow10 =
  QCheck.Test.make ~name:"q: div_pow10 n k = make_ints n 10^k" ~count:500
    QCheck.(
      pair
        (oneof [ int; int_range (-100_000_000) 100_000_000; always min_int ])
        (int_range 0 18))
    (fun (n, k) ->
      let pow = int_of_float (10. ** float_of_int k) in
      let a = Q.div_pow10 n k and b = Q.make_ints n pow in
      Q.compare_exact a b = 0
      && B.equal (Q.num a) (Q.num b)
      && B.equal (Q.den a) (Q.den b)
      && Q.Approx.lo a = Q.Approx.lo b
      && Q.Approx.hi a = Q.Approx.hi b)

let prop_q_to_float =
  QCheck.Test.make ~name:"q: to_float is close to numerator/denominator"
    ~count:500 arbitrary_q (fun q ->
      let f = Q.to_float q in
      let expected = B.to_float (Q.num q) /. B.to_float (Q.den q) in
      abs_float (f -. expected) <= 1e-9 *. (1. +. abs_float expected))

(* --- Two-tier numerics: edge-case regressions and agreement ------------- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_q_decimal_exponent_edges () =
  (* regression: malformed exponents used to surface as [Failure] from
     int_of_string, and huge ones made pow10 allocate unboundedly *)
  expect_invalid "empty exponent" (fun () -> Q.of_decimal_string "1e");
  expect_invalid "sign only" (fun () -> Q.of_decimal_string "1e+");
  expect_invalid "minus only" (fun () -> Q.of_decimal_string "1e-");
  expect_invalid "junk exponent" (fun () -> Q.of_decimal_string "1ex");
  expect_invalid "junk after digits" (fun () -> Q.of_decimal_string "1e5x");
  expect_invalid "hex exponent" (fun () -> Q.of_decimal_string "1e0x1");
  expect_invalid "underscore exponent" (fun () -> Q.of_decimal_string "1e1_0");
  expect_invalid "huge exponent" (fun () -> Q.of_decimal_string "1e100000000");
  expect_invalid "huge negative exponent" (fun () ->
      Q.of_decimal_string "1e-100000000");
  check_q "explicit plus still parses" "150000" (Q.of_decimal_string "1.5e+5");
  check_q "capital E still parses" "1/50" (Q.of_decimal_string "2E-2")

let test_q_to_float_extremes () =
  (* regression: rationals of ordinary magnitude whose numerator and
     denominator separately exceed the float range used to come out as
     nan (inf/inf) instead of their value *)
  let close a b = abs_float (a -. b) <= 1e-9 *. (1. +. abs_float b) in
  let huge = Q.of_decimal_string "1e400" in
  let r = Q.div (Q.add huge Q.one) huge in
  Alcotest.(check bool) "(10^400+1)/10^400 is near 1" true
    (close (Q.to_float r) 1.0);
  Alcotest.(check bool) "negated" true (close (Q.to_float (Q.neg r)) (-1.0));
  let r2 = Q.div (Q.mul_int huge 10) (Q.mul_int huge 3) in
  Alcotest.(check bool) "10/3 at huge scale" true
    (close (Q.to_float r2) (10. /. 3.));
  Alcotest.(check (float 0.)) "overflow is inf" infinity (Q.to_float huge);
  Alcotest.(check (float 0.)) "underflow is 0" 0. (Q.to_float (Q.inv huge))

let test_q_of_float_exact () =
  check_q "half" "1/2" (Q.of_float_exact 0.5);
  check_q "three" "3" (Q.of_float_exact 3.0);
  check_q "negative quarter" "-1/4" (Q.of_float_exact (-0.25));
  check_q "zero" "0" (Q.of_float_exact 0.0);
  check_q "0.1 is the nearest dyadic" "3602879701896397/36028797018963968"
    (Q.of_float_exact 0.1);
  expect_invalid "nan" (fun () -> Q.of_float_exact Float.nan);
  expect_invalid "inf" (fun () -> Q.of_float_exact infinity)

let prop_of_float_exact_roundtrip =
  QCheck.Test.make ~name:"q: to_float (of_float_exact f) = f" ~count:500
    QCheck.(pair (int_range (-1000000000) 1000000000) (int_range (-40) 40))
    (fun (m, e) ->
      let f = ldexp (float_of_int m) e in
      Q.to_float (Q.of_float_exact f) = f)

let test_approx_sentinel_safety () =
  (* the sentinel's NaN bounds must make every enclosure comparison
     inconclusive, so a no-path cell never settles one *)
  let s = Q.sentinel in
  Alcotest.(check bool) "lo is nan" true (Float.is_nan (Q.Approx.lo s));
  Alcotest.(check bool) "hi is nan" true (Float.is_nan (Q.Approx.hi s))

(* Adversarial inputs for the fast tier: shared denominators, near-equal
   and exactly-equal values in different forms, sign boundaries around
   zero, and integers straddling 2^53 where floats stop separating
   neighbours. *)
let arbitrary_adversarial_pair =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        (* same denominator, numerators a few apart *)
        Gen.(
          int_range 1 1000000 >>= fun d ->
          int_range (-1000000) 1000000 >>= fun n ->
          int_range (-2) 2 >>= fun delta ->
          return (Q.of_ints n d, Q.of_ints (n + delta) d));
        (* equal values in different unreduced forms *)
        Gen.(
          int_range 1 1000 >>= fun d ->
          int_range (-1000) 1000 >>= fun n ->
          int_range 1 50 >>= fun k ->
          return (Q.of_ints n d, Q.of_ints (n * k) (d * k)));
        (* tiny values straddling zero *)
        Gen.(
          int_range 1 1000000000 >>= fun d ->
          int_range (-1) 1 >>= fun n -> return (Q.of_ints n d, Q.zero));
        (* dyadic neighbours beyond 2^53 *)
        Gen.(
          int_range 0 1000 >>= fun off ->
          int_range (-2) 2 >>= fun delta ->
          let base = 9007199254740993 + off in
          return (Q.of_int base, Q.of_int (base + delta)));
        (* unconstrained *)
        Gen.(
          int_range (-1000000) 1000000 >>= fun a ->
          int_range 1 1000 >>= fun b ->
          int_range (-1000000) 1000000 >>= fun c ->
          int_range 1 1000 >>= fun e ->
          return (Q.of_ints a b, Q.of_ints c e));
      ]
  in
  make
    ~print:(fun (a, b) -> Q.to_string a ^ " vs " ^ Q.to_string b)
    gen

let prop_compare_two_tier_agrees =
  QCheck.Test.make
    ~name:"q: two-tier compare equals compare_exact on adversarial pairs"
    ~count:2000 arbitrary_adversarial_pair (fun (a, b) ->
      Q.compare a b = Q.compare_exact a b
      && Q.compare b a = Q.compare_exact b a
      && Q.compare a a = 0)

let prop_enclosure_contains =
  QCheck.Test.make
    ~name:"q: float enclosure contains the exact value through arithmetic"
    ~count:1000
    QCheck.(pair arbitrary_adversarial_pair arbitrary_q)
    (fun ((a, b), c) ->
      let enclosed x =
        let lo = Q.Approx.lo x and hi = Q.Approx.hi x in
        (not (Float.is_finite lo))
        || (not (Float.is_finite hi))
        || (Q.compare_exact (Q.of_float_exact lo) x <= 0
           && Q.compare_exact x (Q.of_float_exact hi) <= 0)
      in
      enclosed a && enclosed b && enclosed c
      && enclosed (Q.add a b)
      && enclosed (Q.sub a c)
      && enclosed (Q.mul a b)
      && enclosed (Q.neg a)
      && (Q.is_zero b || enclosed (Q.div a b)))

(* --- Ext ---------------------------------------------------------------- *)

let test_ext () =
  let open Ext in
  Alcotest.(check bool) "fin + fin" true
    (equal (add (of_int 2) (of_int 3)) (of_int 5));
  Alcotest.(check bool) "fin + inf" true (equal (add (of_int 2) Inf) Inf);
  Alcotest.(check bool) "inf + inf" true (equal (add Inf Inf) Inf);
  Alcotest.(check bool) "fin < inf" true (lt (of_int 1000000) Inf);
  Alcotest.(check bool) "inf = inf" true (equal Inf Inf);
  Alcotest.(check bool) "min picks finite" true
    (equal (min Inf (of_int 3)) (of_int 3));
  Alcotest.(check string) "pp inf" "inf" (to_string Inf);
  Alcotest.check_raises "fin_exn inf"
    (Invalid_argument "Ext.fin_exn: infinite") (fun () -> ignore (fin_exn Inf))

(* --- Interval ----------------------------------------------------------- *)

let test_interval () =
  let i = I.of_q (Q.of_int 1) (Q.of_int 5) in
  Alcotest.(check bool) "mem inside" true (I.mem (Q.of_int 3) i);
  Alcotest.(check bool) "mem boundary lo" true (I.mem (Q.of_int 1) i);
  Alcotest.(check bool) "mem boundary hi" true (I.mem (Q.of_int 5) i);
  Alcotest.(check bool) "mem outside" false (I.mem (Q.of_int 6) i);
  Alcotest.(check bool) "width" true
    (Ext.equal (I.width i) (Ext.of_int 4));
  Alcotest.(check bool) "width of full" true
    (Ext.equal (I.width I.full) Ext.Inf);
  Alcotest.(check bool) "mem full" true (I.mem (Q.of_int 1000000) I.full);
  let shifted = I.shift i (Q.of_int 10) in
  Alcotest.(check string) "shift" "[11, 15]" (I.to_string shifted);
  let widened = I.widen i ~lo_by:(Q.of_int 1) ~hi_by:(Q.of_int 2) in
  Alcotest.(check string) "widen" "[0, 7]" (I.to_string widened);
  Alcotest.check_raises "widen negative"
    (Invalid_argument "Interval.widen: negative slack") (fun () ->
      ignore (I.widen i ~lo_by:(Q.of_int (-1)) ~hi_by:Q.zero));
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Interval.make: empty interval") (fun () ->
      ignore (I.of_q (Q.of_int 5) (Q.of_int 1)))

let test_interval_inter () =
  let a = I.of_q (Q.of_int 1) (Q.of_int 5) in
  let b = I.of_q (Q.of_int 3) (Q.of_int 8) in
  (match I.inter a b with
  | Some i -> Alcotest.(check string) "overlap" "[3, 5]" (I.to_string i)
  | None -> Alcotest.fail "expected overlap");
  let c = I.of_q (Q.of_int 6) (Q.of_int 8) in
  Alcotest.(check bool) "disjoint" true (I.inter a c = None);
  (match I.inter a I.full with
  | Some i -> Alcotest.(check bool) "inter with full" true (I.equal i a)
  | None -> Alcotest.fail "expected overlap with full");
  Alcotest.(check bool) "subset" true (I.subset (I.of_q (Q.of_int 2) (Q.of_int 4)) a);
  Alcotest.(check bool) "not subset" false (I.subset b a);
  Alcotest.(check bool) "everything subset of full" true (I.subset a I.full)

let prop_interval_inter_mem =
  QCheck.Test.make ~name:"interval: q in inter iff in both" ~count:500
    QCheck.(quad arbitrary_q arbitrary_q arbitrary_q arbitrary_q)
    (fun (a, b, c, d) ->
      let i1 = I.of_q (Q.min a b) (Q.max a b) in
      let i2 = I.of_q (Q.min c d) (Q.max c d) in
      let probe = Q.div_int (Q.add a c) 2 in
      let in_inter =
        match I.inter i1 i2 with None -> false | Some i -> I.mem probe i
      in
      in_inter = (I.mem probe i1 && I.mem probe i2))

(* --- runner -------------------------------------------------------------- *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "num"
    [
      ( "bigint",
        [
          Alcotest.test_case "basic constructors" `Quick test_bigint_basic;
          Alcotest.test_case "string round trips" `Quick test_bigint_string;
          Alcotest.test_case "big arithmetic" `Quick test_bigint_arith;
          Alcotest.test_case "divmod signs" `Quick test_bigint_divmod_signs;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "pow10" `Quick test_bigint_pow10;
          Alcotest.test_case "to_int bounds" `Quick test_bigint_to_int;
        ] );
      qsuite "bigint-props"
        [
          prop_string_roundtrip; prop_add_comm; prop_add_assoc; prop_mul_comm;
          prop_distrib; prop_divmod; prop_small_matches_native; prop_gcd_divides;
        ];
      ( "q",
        [
          Alcotest.test_case "constructors" `Quick test_q_basic;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "decimal parsing" `Quick test_q_decimal;
          Alcotest.test_case "comparisons" `Quick test_q_compare;
          Alcotest.test_case "decimal exponent edges" `Quick
            test_q_decimal_exponent_edges;
          Alcotest.test_case "to_float extremes" `Quick test_q_to_float_extremes;
          Alcotest.test_case "of_float_exact" `Quick test_q_of_float_exact;
          Alcotest.test_case "approx sentinel safety" `Quick
            test_approx_sentinel_safety;
        ] );
      qsuite "q-props"
        [ prop_q_field; prop_q_compare_antisym; prop_q_to_float; prop_q_div_pow10 ];
      qsuite "q-two-tier-props"
        [
          prop_of_float_exact_roundtrip; prop_compare_two_tier_agrees;
          prop_enclosure_contains;
        ];
      ("ext", [ Alcotest.test_case "extended weights" `Quick test_ext ]);
      ( "interval",
        [
          Alcotest.test_case "basic operations" `Quick test_interval;
          Alcotest.test_case "intersection" `Quick test_interval_inter;
        ] );
      qsuite "interval-props" [ prop_interval_inter_mem ];
    ]
