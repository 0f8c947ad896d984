(* SplitMix64 over int64, exposed as 62-bit non-negative ints. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_nonneg t =
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let split t = { state = next_int64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next_nonneg t mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else float_of_int (int t 1_000_000) /. 1_000_000. < p

let grid = 1 lsl 20

let q_between t lo hi =
  let c = Q.compare lo hi in
  if c > 0 then invalid_arg "Rng.q_between: lo > hi"
  else if c = 0 then lo
  else
    let k = int t (grid + 1) in
    Q.add lo (Q.mul (Q.sub hi lo) (Q.of_ints k grid))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))
