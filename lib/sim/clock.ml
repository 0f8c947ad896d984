type policy = [ `Fixed of Q.t | `Random | `Adversarial | `Sawtooth of int ]

let ticks_per_second = System_spec.ticks_per_second
let tick = System_spec.tick
let tps_f = float_of_int ticks_per_second

(* [k >= 0] when every reading in [[lo, hi]] lies strictly inside the
   tick [[k·tick, (k+1)·tick)], widened by one ulp each way to cover the
   scaling's rounding; [-1] when they may not (NaN and infinities
   included) *)
let tick_inside lo hi =
  let l = Float.pred (lo *. tps_f) in
  let k = Float.floor l in
  if l > k && k >= 0. && k < 0x1p52 && Float.floor (Float.succ (hi *. tps_f)) = k
  then int_of_float k
  else -1

let step ~up q r =
  if up then if r > 0 then q + 1 else q else if r < 0 then q - 1 else q

let big_ticks ~up lt =
  let q, r =
    Bigint.divmod (Bigint.mul_int (Q.num lt) ticks_per_second) (Q.den lt)
  in
  Bigint.add_int q (step ~up 0 (Bigint.sign r))

(* [lt] in whole ticks, rounded toward -inf ([up = false]) or +inf.
   First from [lt]'s float enclosure, when it lies strictly inside one
   tick.  Otherwise exactly: native ints whenever the scaled numerator
   fits, [Bigint] beyond.  Both divisions truncate toward zero, so the
   remainder's sign says which way to step. *)
let round_ticks ~up lt =
  let k = tick_inside (Q.Approx.lo lt) (Q.Approx.hi lt) in
  if k >= 0 then if up then k + 1 else k
  else
    match Bigint.to_int_opt (Q.num lt), Bigint.to_int_opt (Q.den lt) with
    | Some n, Some d when abs n <= max_int / ticks_per_second ->
      let m = n * ticks_per_second in
      step ~up (m / d) (m mod d)
    | _ -> (
      match Bigint.to_int_opt (big_ticks ~up lt) with
      | Some k -> k
      | None -> invalid_arg "Clock.floor_ticks: reading past the int range")

let floor_ticks = round_ticks ~up:false

(* the rational seam: a whole tick comes back physically unchanged (no
   rational built), and a reading past the int range of ticks rounds in
   [Bigint] *)
let round_tick ~up lt =
  match Bigint.to_int_opt (Q.den lt) with
  | Some d when ticks_per_second mod d = 0 -> lt
  | _ -> (
    match round_ticks ~up lt with
    | k -> System_spec.q_of_ticks k
    | exception Invalid_argument _ ->
      Q.make (big_ticks ~up lt) (Bigint.of_int ticks_per_second))

let floor_tick = round_tick ~up:false
let ceil_tick = round_tick ~up:true

let floor_tick_within lo hi =
  match tick_inside lo hi with
  | k when k >= 0 -> Some (System_spec.q_of_ticks k)
  | _ -> None

(* Segments are delimited by LOCAL duration, not real duration: the local
   boundary readings form an exact arithmetic progression (tiny rational
   denominators), and the real boundaries accumulate as sums
   rt_{k+1} = rt_k + seg·r_k — sums keep denominators bounded by the
   common denominator of the rate grid, whereas the naive real-duration
   segmentation compounds one rate denominator per segment and produces
   thousand-digit rationals within minutes of simulated time. *)
type segment = { rt0 : Q.t; lt0 : Q.t; inv_rate : Q.t (* dRT/dLT *) }

type t = {
  drift : Drift.t;
  policy : policy;
  seg_len : Q.t; (* local-time length of one segment *)
  rng : Rng.t;
  mutable segments : segment list; (* newest first; never empty *)
  mutable n_segments : int;
}

let rate_for t i =
  let open Drift in
  let d = t.drift in
  match t.policy with
  | `Fixed r -> r
  | `Random ->
    (* a coarse grid keeps rate numerators small: every local reading
       carries one rate-numerator factor in its denominator, and distance
       computations collect one factor per traversed segment *)
    let k = Rng.int t.rng 65 in
    Q.add d.rmin (Q.mul (Q.sub d.rmax d.rmin) (Q.of_ints k 64))
  | `Adversarial -> if i mod 2 = 0 then d.rmax else d.rmin
  | `Sawtooth k ->
    let k = max 2 k in
    let step = Q.div_int (Q.sub d.rmax d.rmin) (k - 1) in
    Q.add d.rmin (Q.mul_int step (i mod k))

let create ~drift ~policy ~segment ~lt0 ~rng =
  if Q.(segment <= zero) then invalid_arg "Clock.create: segment must be positive";
  (match policy with
  | `Fixed r ->
    let open Drift in
    if Q.(r < drift.rmin) || Q.(r > drift.rmax) then
      invalid_arg "Clock.create: fixed rate outside drift bound"
  | `Random | `Adversarial | `Sawtooth _ -> ());
  let t =
    { drift; policy; seg_len = segment; rng; segments = []; n_segments = 0 }
  in
  t.segments <- [ { rt0 = Q.zero; lt0; inv_rate = rate_for t 0 } ];
  t.n_segments <- 1;
  t

let drift t = t.drift

let extend t =
  match t.segments with
  | [] -> assert false
  | last :: _ ->
    let rt0 = Q.add last.rt0 (Q.mul t.seg_len last.inv_rate) in
    let lt0 = Q.add last.lt0 t.seg_len in
    let seg = { rt0; lt0; inv_rate = rate_for t t.n_segments } in
    t.segments <- seg :: t.segments;
    t.n_segments <- t.n_segments + 1

let rt_end s seg_len = Q.add s.rt0 (Q.mul seg_len s.inv_rate)

let lt_of_rt t rt =
  if Q.sign rt < 0 then invalid_arg "Clock.lt_of_rt: negative real time";
  let rec ensure () =
    match t.segments with
    | last :: _ when Q.(rt_end last t.seg_len <= rt) ->
      extend t;
      ensure ()
    | _ -> ()
  in
  ensure ();
  let seg = List.find (fun s -> Q.(s.rt0 <= rt)) t.segments in
  Q.add seg.lt0 (Q.div (Q.sub rt seg.rt0) seg.inv_rate)

let rt_of_lt t lt =
  let rec ensure () =
    match t.segments with
    | last :: _ when Q.(Q.add last.lt0 t.seg_len <= lt) ->
      extend t;
      ensure ()
    | _ -> ()
  in
  ensure ();
  let seg =
    match List.find_opt (fun s -> Q.(s.lt0 <= lt)) t.segments with
    | Some s -> s
    | None -> invalid_arg "Clock.rt_of_lt: local time before clock start"
  in
  Q.add seg.rt0 (Q.mul (Q.sub lt seg.lt0) seg.inv_rate)
