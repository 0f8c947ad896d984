(* Order statistics shared by the measurement and the comparison. *)

type window = { index : int; wall : float; msgs : int }
(* one virtual second of a run: window k covers virtual time [k-1, k) *)

let rate w = float_of_int w.msgs /. w.wall

(* windows before virtual t = 2 s are warm-up *)
let steady_from = 3
let steady w = w.index >= steady_from

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile; [nan] on no samples *)
let pct l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(values, n=4)] (the default
   "exclusive" method), so the spreads printed here are the ones a
   reader recomputes from the JSON *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
