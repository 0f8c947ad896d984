
type t = { rmin : Q.t; rmax : Q.t }

let make ~rmin ~rmax =
  if Q.(rmin <= zero) then invalid_arg "Drift.make: rmin must be positive";
  if Q.(rmax < rmin) then invalid_arg "Drift.make: rmax < rmin";
  { rmin; rmax }

let of_ppm k =
  if k < 0 || k >= 1_000_000 then invalid_arg "Drift.of_ppm: out of range";
  let eps = Q.of_ints k 1_000_000 in
  make ~rmin:(Q.sub Q.one eps) ~rmax:(Q.add Q.one eps)

let perfect = { rmin = Q.one; rmax = Q.one }
let is_perfect d = Q.(d.rmin = one) && Q.(d.rmax = one)

let max_deviation d =
  Q.max (Q.sub d.rmax Q.one) (Q.sub Q.one d.rmin)

let rt_bounds d elapsed_lt =
  if Q.sign elapsed_lt < 0 then invalid_arg "Drift.rt_bounds: negative elapse";
  (Q.mul d.rmin elapsed_lt, Q.mul d.rmax elapsed_lt)
