module B = Bigint

(* Two-tier representation (DESIGN.md Section 11): alongside the exact
   numerator/denominator, every rational carries a guaranteed float
   enclosure [ap.blo, ap.bhi] of its value, rounded outward.  Order
   queries answer from the enclosure whenever the bounds are conclusive
   and fall back to exact bigint cross-multiplication only when they
   overlap.  [bounds] is an all-float record, so the pair costs one flat
   block and its reads never box.  The sentinel carries NaN bounds: NaN
   compares false against everything, so the float tier can never reach
   a conclusion about it. *)
type bounds = { blo : float; bhi : float }

type t = { n : B.t; d : B.t; ap : bounds }
(* Invariants: d > 0; gcd(|n|, d) = 1; n = 0 implies d = 1;
   blo <= n/d <= bhi (with blo = bhi = nan iff d = 0, the sentinel). *)

let ap_nan = { blo = Float.nan; bhi = Float.nan }
let ap_zero = { blo = 0.; bhi = 0. }
let ap_wide = { blo = neg_infinity; bhi = infinity }

(* Enclosure of n/d.  [B.to_float] performs one rounded multiply-add per
   limb beyond the first and the division rounds once more, so for
   magnitudes up to 30 limbs the computed quotient carries a relative
   error below (2*(ln + ld) + 2) * 2^-53 <= 2^-46.  Scaling outward by
   1 -/+ 2^-44 dominates that error plus the scaling's own rounding —
   two multiplications instead of a chain of nextafter calls, because
   enclosure construction sits on every Q allocation.  The scaling only
   widens reliably on normal floats; with both magnitudes at most 30
   limbs the quotient is either normal or overflowed, and values with
   more than 30 limbs on either side (beyond ~2^900) get the whole real
   line — they never reach hot paths and the exact tier covers them. *)
let widen_dn = 1. -. 0x1p-44
let widen_up = 1. +. 0x1p-44

let approx n d =
  if B.is_zero d then ap_nan
  else if B.is_zero n then ap_zero
  else begin
    let ln = B.num_limbs n and ld = B.num_limbs d in
    if ln > 30 || ld > 30 then ap_wide
    else begin
      let f = B.to_float n /. B.to_float d in
      if not (Float.is_finite f) then ap_wide
      else if ln = 1 && ld = 1 then
        (* single-limb magnitudes convert exactly; the division is the
           only rounding, and with d = 1 there is none at all *)
        if B.equal d B.one then { blo = f; bhi = f }
        else { blo = Float.pred f; bhi = Float.succ f }
      else if f > 0. then { blo = f *. widen_dn; bhi = f *. widen_up }
      else { blo = f *. widen_up; bhi = f *. widen_dn }
    end
  end

let mk_raw n d = { n; d; ap = approx n d }

let make_big num den =
  if B.is_zero den then raise Division_by_zero
  else if B.is_zero num then mk_raw B.zero B.one
  else begin
    let num, den = if B.sign den < 0 then B.neg num, B.neg den else num, den in
    let g = B.gcd num den in
    if B.equal g B.one then mk_raw num den
    else mk_raw (B.div num g) (B.div den g)
  end

let zero = mk_raw B.zero B.one
let one = mk_raw B.one B.one
let of_bigint n = mk_raw n B.one
let of_int n = of_bigint (B.of_int n)
let num q = q.n
let den q = q.d

(* Out-of-band marker: denominator 0 violates the type invariant, so no
   arithmetic below ever produces it and [is_sentinel] cannot
   false-positive on a real rational.  Fw_oracle stores it in flat
   distance arrays as an unboxed "+infinity". *)
let sentinel = mk_raw B.zero B.zero
let is_sentinel a = B.is_zero a.d

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

let float_exact_bound = 9007199254740992 (* 2^53 *)

(* [n/d] already in lowest terms with [d > 0], both native: the enclosure
   comes from one float division — exact conversions below 2^53 mean a
   one-ulp widening suffices; larger terms take the relative widening. *)
let mk_ints_reduced n d =
  let f = float_of_int n /. float_of_int d in
  let ap =
    if -float_exact_bound < n && n < float_exact_bound && d < float_exact_bound
    then
      if d = 1 then { blo = f; bhi = f }
      else { blo = Float.pred f; bhi = Float.succ f }
    else if f > 0. then { blo = f *. widen_dn; bhi = f *. widen_up }
    else { blo = f *. widen_up; bhi = f *. widen_dn }
  in
  { n = B.of_int n; d = B.of_int d; ap }

(* [make] over native ints with no bigint arithmetic: the gcd runs on
   native ints and the enclosure skips [approx]'s limb walk.  This is
   the wire decoder's constructor for every small timestamp, so it must
   not allocate intermediates.  [min_int] magnitudes cannot be negated
   natively; that one case falls back to the bigint path. *)
let make_ints n d =
  if d = 0 then raise Division_by_zero
  else if n = 0 then zero
  else if n = Stdlib.min_int || d = Stdlib.min_int then
    make_big (B.of_int n) (B.of_int d)
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = igcd (Stdlib.abs n) d in
    mk_ints_reduced (n / g) (d / g)
  end

let of_ints n d = make_ints n d

(* [n / 10^k] with no gcd: 10^k = 2^k·5^k, so stripping the common
   factors of 2 and of 5 leaves the terms coprime *)
let pow10 = Array.init 19 (fun k -> int_of_float (10. ** float_of_int k))

(* [g·p^j], the largest [j <= i] with [g·p^j] dividing [n] *)
let rec common_factor n p i g =
  if i > 0 && n / g mod p = 0 then common_factor n p (i - 1) (g * p) else g

let div_pow10 n k =
  if k < 0 || k > 18 then invalid_arg "Q.div_pow10: exponent outside [0, 18]";
  if n = 0 then zero
  else if n = Stdlib.min_int then make_ints n pow10.(k)
  else begin
    let g = common_factor n 5 k (common_factor n 2 k 1) in
    mk_ints_reduced (n / g) (pow10.(k) / g)
  end

(* Terms that fit native ints reduce by the native gcd: a bigint gcd
   runs Euclid on limb arrays, an allocating division per step, and
   costs microseconds where the native one costs nanoseconds. *)
let make num den =
  match B.to_int_opt num, B.to_int_opt den with
  | Some n, Some d -> make_ints n d
  | _ -> make_big num den

(* Sum of two single-limb rationals entirely in native ints: magnitudes
   are below 2^30, so the cross products stay below 2^60 and the
   numerator below 2^61 — no bigint allocation until the final reduced
   result.  Most timestamp arithmetic runs here, so the enclosure is
   also computed directly: below 2^53 both conversions
   are exact and one division rounding means a one-ulp widening; larger
   reduced terms fall back to the relative widening. *)
let add_small na da nb db =
  let n, d =
    if da = db then (na + nb, da) else ((na * db) + (nb * da), da * db)
  in
  if n = 0 then mk_raw B.zero B.one
  else begin
    let g = igcd (if n < 0 then -n else n) d in
    mk_ints_reduced (n / g) (d / g)
  end

let add a b =
  if B.is_zero a.n then b
  else if B.is_zero b.n then a
  else if
    B.num_limbs a.n = 1 && B.num_limbs a.d = 1 && B.num_limbs b.n = 1
    && B.num_limbs b.d = 1
  then
    add_small (B.to_int_exn a.n) (B.to_int_exn a.d) (B.to_int_exn b.n)
      (B.to_int_exn b.d)
  else if B.equal a.d b.d then
    (* common denominator: skip the three cross multiplications; with
       denominator 1 the sum is already in lowest terms *)
    let n = B.add a.n b.n in
    if B.equal a.d B.one then mk_raw n B.one else make n a.d
  else make (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)

let neg a =
  (* negating flips and swaps the enclosure; no recomputation needed *)
  { n = B.neg a.n; d = a.d; ap = { blo = -.a.ap.bhi; bhi = -.a.ap.blo } }
let sub a b = add a (neg b)
let mul a b = make (B.mul a.n b.n) (B.mul a.d b.d)

let inv a =
  if B.is_zero a.n then raise Division_by_zero
  else if B.sign a.n < 0 then mk_raw (B.neg a.d) (B.neg a.n)
  else mk_raw a.d a.n

let div a b = mul a (inv b)
let mul_int a k = make (B.mul_int a.n k) a.d
let div_int a k = make a.n (B.mul_int a.d k)

let compare_exact a b =
  (* denominators are positive, so the sign of the numerator is the sign
     of the rational and equal denominators reduce to a numerator
     comparison — both fast paths skip the bigint multiplications *)
  if B.equal a.d b.d then B.compare a.n b.n
  else
    let sa = B.sign a.n and sb = B.sign b.n in
    if sa <> sb then Stdlib.compare sa sb
    else B.compare (B.mul a.n b.d) (B.mul b.n a.d)

let compare a b =
  (* tier 1: strict separation of the float enclosures decides without
     touching a bigint (NaN bounds — the sentinel — never separate) *)
  if a.ap.bhi < b.ap.blo then -1
  else if b.ap.bhi < a.ap.blo then 1
  else compare_exact a b
let equal a b = B.equal a.n b.n && B.equal a.d b.d
let sign a = B.sign a.n
let is_zero a = B.is_zero a.n
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_float a = B.float_div a.n a.d

let of_float_exact f =
  if not (Float.is_finite f) then invalid_arg "Q.of_float_exact: not finite";
  if f = 0. then zero
  else begin
    (* every finite float is the dyadic rational m * 2^(e-53) with an
       integral 53-bit m *)
    let m, e = Float.frexp f in
    let mi = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
    let e = e - 53 in
    if e >= 0 then of_bigint (B.mul (B.of_int mi) (B.pow2 e))
    else make (B.of_int mi) (B.pow2 (-e))
  end

module Approx = struct
  let lo a = a.ap.blo
  let hi a = a.ap.bhi
end

let to_string a =
  if B.equal a.d B.one then B.to_string a.n
  else B.to_string a.n ^ "/" ^ B.to_string a.d

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* Exponents are applied as an eager [pow10], so an attacker-supplied
   "1e100000000" would allocate a hundred-megabyte integer before any
   arithmetic runs; 10^±10000 comfortably covers every physical scale. *)
let max_exponent = 10_000

let parse_exponent es =
  let len = String.length es in
  let start =
    if len > 0 && (es.[0] = '+' || es.[0] = '-') then 1 else 0
  in
  if start >= len then invalid_arg "Q.of_decimal_string: malformed exponent";
  let v = ref 0 in
  for j = start to len - 1 do
    match es.[j] with
    | '0' .. '9' as c ->
      if !v <= max_exponent then
        v := (!v * 10) + (Char.code c - Char.code '0')
    | _ -> invalid_arg "Q.of_decimal_string: malformed exponent"
  done;
  if !v > max_exponent then
    invalid_arg "Q.of_decimal_string: exponent out of range";
  if es.[0] = '-' then - !v else !v

let of_decimal_string s =
  let s = String.trim s in
  if String.length s = 0 then invalid_arg "Q.of_decimal_string: empty string";
  (* split off exponent *)
  let mantissa, exponent =
    match String.index_opt s 'e', String.index_opt s 'E' with
    | Some i, _ | None, Some i ->
      ( String.sub s 0 i,
        parse_exponent (String.sub s (i + 1) (String.length s - i - 1)) )
    | None, None -> s, 0
  in
  let int_part, frac_part =
    match String.index_opt mantissa '.' with
    | Some i ->
      ( String.sub mantissa 0 i,
        String.sub mantissa (i + 1) (String.length mantissa - i - 1) )
    | None -> mantissa, ""
  in
  let digits = int_part ^ frac_part in
  if digits = "" || digits = "-" || digits = "+" then
    invalid_arg "Q.of_decimal_string: no digits";
  let n = B.of_string digits in
  let scale = String.length frac_part in
  let base = make n (B.pow10 scale) in
  if exponent = 0 then base
  else if exponent > 0 then mul base (of_bigint (B.pow10 exponent))
  else div base (of_bigint (B.pow10 (-exponent)))

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( = ) a b = equal a b
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
