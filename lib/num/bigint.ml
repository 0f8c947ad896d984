(* Arbitrary-precision signed integers: sign + little-endian magnitude in
   base 2^30.  Division is Knuth's Algorithm D.  The magnitude arrays are
   never shared with mutable aliases outside this module, so values behave
   as immutable. *)

let base_bits = 30
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign is -1, 0 or 1; sign = 0 iff mag = [||];
   mag has no leading (high-order) zero limb; each limb is in [0, base). *)

let zero = { sign = 0; mag = [||] }

(* --- magnitude helpers ------------------------------------------------ *)

let normalized_length mag =
  let rec scan i = if i >= 0 && mag.(i) = 0 then scan (i - 1) else i + 1 in
  scan (Array.length mag - 1)

let make sign mag =
  let n = normalized_length mag in
  if n = 0 then zero
  else
    let mag = if n = Array.length mag then mag else Array.sub mag 0 n in
    { sign; mag }

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec scan i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else scan (i - 1)
    in
    scan (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lo, hi, llo, lhi = if la <= lb then a, b, la, lb else b, a, lb, la in
  let res = Array.make (lhi + 1) 0 in
  let carry = ref 0 in
  for i = 0 to llo - 1 do
    let s = lo.(i) + hi.(i) + !carry in
    res.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  for i = llo to lhi - 1 do
    let s = hi.(i) + !carry in
    res.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  res.(lhi) <- !carry;
  res

(* [sub_mag a b] assumes [cmp_mag a b >= 0]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      res.(i) <- d + base;
      borrow := 1
    end else begin
      res.(i) <- d;
      borrow := 0
    end
  done;
  res

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let res = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai*b.(j) < 2^60; adding res and carry stays below 2^62. *)
          let cur = res.(i + j) + (ai * b.(j)) + !carry in
          res.(i + j) <- cur land limb_mask;
          carry := cur lsr base_bits
        done;
        res.(i + lb) <- res.(i + lb) + !carry
      end
    done;
    res
  end

(* Short division of a magnitude by a single limb; returns (quotient, rem). *)
let divmod_mag_int a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  q, !r

let shift_left_mag a k =
  (* 0 <= k < base_bits *)
  if k = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let res = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) lsl k) lor !carry in
      res.(i) <- cur land limb_mask;
      carry := cur lsr base_bits
    done;
    res.(la) <- !carry;
    res
  end

let shift_right_mag a k =
  if k = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let res = Array.make la 0 in
    let carry = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!carry lsl base_bits) lor a.(i) in
      res.(i) <- cur lsr k;
      carry := cur land ((1 lsl k) - 1)
    done;
    res
  end

let bits_of_limb x =
  let rec scan n x = if x = 0 then n else scan (n + 1) (x lsr 1) in
  scan 0 x

(* Knuth Algorithm D.  Preconditions: length v >= 2, cmp_mag u v >= 0. *)
let divmod_mag_long u v =
  let n = Array.length v in
  let m = Array.length u - n in
  let shift = base_bits - bits_of_limb v.(n - 1) in
  let vn = shift_left_mag v shift in
  (* vn has n (+1 zero) limbs; re-trim to n. *)
  let vn = Array.sub vn 0 n in
  let un = shift_left_mag u shift in
  let un =
    if Array.length un = m + n + 1 then un
    else begin
      let r = Array.make (m + n + 1) 0 in
      Array.blit un 0 r 0 (Array.length un);
      r
    end
  in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (top / vn.(n - 1)) in
    let rhat = ref (top mod vn.(n - 1)) in
    let continue = ref true in
    while
      !continue
      && (!qhat >= base
          || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vn.(n - 1);
      if !rhat >= base then continue := false
    done;
    (* multiply and subtract *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      let t = un.(i + j) - !borrow - (p land limb_mask) in
      un.(i + j) <- t land limb_mask;
      borrow := (p lsr base_bits) - (t asr base_bits)
    done;
    let t = un.(j + n) - !borrow in
    un.(j + n) <- t land limb_mask;
    if t < 0 then begin
      (* qhat was one too large: add back *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- s land limb_mask;
        carry := s lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry) land limb_mask
    end;
    q.(j) <- !qhat
  done;
  let r = shift_right_mag (Array.sub un 0 n) shift in
  q, r

let divmod_mag u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | _ when cmp_mag u v < 0 -> [||], Array.copy u
  | 1 ->
    let q, r = divmod_mag_int u v.(0) in
    q, (if r = 0 then [||] else [| r |])
  | _ -> divmod_mag_long u v

(* --- signed interface -------------------------------------------------- *)

let of_int x =
  if x = 0 then zero
  else if x <> Stdlib.min_int then begin
    (* hot constructor (every native-int Q goes through here twice):
       build the limb array directly, no Int64 boxing, no list *)
    let sign = if x < 0 then -1 else 1 in
    let v = Stdlib.abs x in
    if v < base then { sign; mag = [| v |] }
    else if v lsr (2 * base_bits) = 0 then
      { sign; mag = [| v land limb_mask; v lsr base_bits |] }
    else
      {
        sign;
        mag =
          [|
            v land limb_mask;
            (v lsr base_bits) land limb_mask;
            v lsr (2 * base_bits);
          |];
      }
  end
  else begin
    (* |min_int| does not fit in an int; go through Int64 *)
    let v = Int64.abs (Int64.of_int x) in
    let rec limbs v acc =
      if Int64.equal v 0L then List.rev acc
      else
        limbs
          (Int64.shift_right_logical v base_bits)
          (Int64.to_int (Int64.logand v (Int64.of_int limb_mask)) :: acc)
    in
    { sign = -1; mag = Array.of_list (limbs v []) }
  end

let one = of_int 1
let minus_one = of_int (-1)

let to_int_opt x =
  let n = Array.length x.mag in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0L in
    let ok = ref true in
    for i = n - 1 downto 0 do
      let shifted = Int64.shift_left !v base_bits in
      if Int64.compare (Int64.shift_right_logical shifted base_bits) !v <> 0
      then ok := false;
      v := Int64.add shifted (Int64.of_int x.mag.(i))
    done;
    (* a magnitude of 2^63 or more passes the shift check but lands on
       Int64's sign bit *)
    if (not !ok) || Int64.compare !v 0L < 0 then None
    else
      let v = if x.sign < 0 then Int64.neg !v else !v in
      let i = Int64.to_int v in
      if Int64.equal (Int64.of_int i) v then Some i else None
  end

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: value out of native int range"

let sign x = x.sign
let is_zero x = x.sign = 0
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then zero, zero
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    q, r
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_mag a b = if is_zero b then a else gcd_mag b (rem a b)
let gcd a b = gcd_mag (abs a) (abs b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let pow2 k =
  if k < 0 then invalid_arg "Bigint.pow2: negative exponent";
  let limbs = k / base_bits and rest = k mod base_bits in
  let mag = Array.make (limbs + 1) 0 in
  mag.(limbs) <- 1 lsl rest;
  { sign = 1; mag }

let pow10 k =
  if k < 0 then invalid_arg "Bigint.pow10: negative exponent";
  let billion = of_int 1_000_000_000 in
  let rec go k acc =
    if k >= 9 then go (k - 9) (mul acc billion)
    else begin
      let rec small k m = if k = 0 then m else small (k - 1) (m * 10) in
      mul acc (of_int (small k 1))
    end
  in
  go k one

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if normalized_length mag = 0 then acc
      else
        let q, r = divmod_mag_int mag 1_000_000_000 in
        let q = Array.sub q 0 (normalized_length q) in
        chunks q (r :: acc)
    in
    match chunks x.mag [] with
    | [] -> "0"
    | first :: rest ->
      if x.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> -1, 1
    | '+' -> 1, 1
    | _ -> 1, 0
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let pow10_small k =
    let rec go k m = if k = 0 then m else go (k - 1) (m * 10) in
    go k 1
  in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      chunk := (!chunk * 10) + (Char.code c - Char.code '0');
      incr chunk_len;
      if !chunk_len = 9 then begin
        acc := add (mul_int !acc 1_000_000_000) (of_int !chunk);
        chunk := 0;
        chunk_len := 0
      end
    | _ -> invalid_arg "Bigint.of_string: invalid character"
  done;
  if !chunk_len > 0 then
    acc := add (mul_int !acc (pow10_small !chunk_len)) (of_int !chunk);
  if sign < 0 then neg !acc else !acc

let to_float x =
  let m =
    Array.fold_right
      (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
      x.mag 0.
  in
  if x.sign < 0 then -.m else m

(* [x / 2^(30*shift)] as a float, folding only the limbs from [shift]
   upward.  The dropped low limbs contribute a relative error below
   2^(-30*(kept-1)) — invisible at float precision once a handful of
   limbs survive. *)
let to_float_shifted x shift =
  let mag = x.mag in
  let m = ref 0. in
  for i = Array.length mag - 1 downto shift do
    m := (!m *. float_of_int base) +. float_of_int mag.(i)
  done;
  if x.sign < 0 then -. !m else !m

let float_div n d =
  let ln = Array.length n.mag and ld = Array.length d.mag in
  let m = Stdlib.max ln ld in
  if m <= 30 then to_float n /. to_float d
  else begin
    (* either operand alone would overflow [to_float] (|x| can reach
       2^(30*34) > 2^1023): cancel matched high limbs first so a ratio
       of ordinary magnitude divides two ordinary floats.  A genuinely
       astronomical ratio still comes out as inf/0 — correctly. *)
    let shift = m - 18 in
    to_float_shifted n shift /. to_float_shifted d shift
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let num_limbs x = Array.length x.mag
