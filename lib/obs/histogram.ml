(* Log-bucketed latency histogram: constant memory, one [log] per
   record, mergeable.  Bucket 0 holds everything <= [lo] (including
   zero and negatives, which a duration should never be but a total API
   must absorb); the last bucket is the overflow with upper bound
   +infinity; bucket i in between covers (bound(i-1), bound(i)] with
   bound(i) = lo * growth^i.

   The defaults span 1 ns .. ~1000 s with growth 2^(1/4) (~19% bucket
   width, so quantiles are exact to within ~9.5% relative error) in 162
   buckets — ~1.3 KiB per instrument.  Exact count/sum/min/max are kept
   alongside the buckets. *)

type t = {
  lo : float;
  growth : float;
  inv_log_growth : float;
  bounds : float array; (* bounds.(i) = upper bound of bucket i *)
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let default_lo = 1e-9
let default_growth = Float.exp (Float.log 2. /. 4.)
let default_buckets = 162

let create ?(lo = default_lo) ?(growth = default_growth)
    ?(buckets = default_buckets) () =
  if not (Float.is_finite lo && lo > 0.) then
    invalid_arg "Histogram.create: lo must be finite and positive";
  if not (Float.is_finite growth && growth > 1.) then
    invalid_arg "Histogram.create: growth must be > 1";
  if buckets < 2 then invalid_arg "Histogram.create: need >= 2 buckets";
  let bounds =
    Array.init buckets (fun i ->
        if i = buckets - 1 then Float.infinity
        else lo *. (growth ** float_of_int i))
  in
  {
    lo;
    growth;
    inv_log_growth = 1. /. Float.log growth;
    bounds;
    counts = Array.make buckets 0;
    n = 0;
    sum = 0.;
    mn = Float.nan;
    mx = Float.nan;
  }

let copy t = { t with counts = Array.copy t.counts }

let index t v =
  if not (v > t.lo) (* catches nan too *) then 0
  else
    let i =
      1 + int_of_float (Float.floor (Float.log (v /. t.lo) *. t.inv_log_growth))
    in
    let i = if i < 1 then 1 else i in
    let last = Array.length t.counts - 1 in
    (* float rounding can land on a bucket whose bound is still below v;
       nudge up so bucket i really covers v *)
    let i = if i < last && v > t.bounds.(i) then i + 1 else i in
    if i > last then last else i

let record t v =
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if t.n = 1 then (
    t.mn <- v;
    t.mx <- v)
  else (
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v)

let count t = t.n
let sum t = t.sum
let min_value t = t.mn
let max_value t = t.mx
let mean t = if t.n = 0 then Float.nan else t.sum /. float_of_int t.n

(* Nearest-rank quantile over the buckets: the upper bound of the bucket
   holding the rank-th sample, clamped to the exact observed max (so
   [quantile t 1.0 = max_value t] when the max lands in the overflow or
   a sparse top bucket). *)
let quantile t q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Histogram.quantile";
  if t.n = 0 then Float.nan
  else
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      if r < 1 then 1 else r
    in
    let rec go i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank then Float.min t.bounds.(i) t.mx else go (i + 1) cum
    in
    go 0 0

let merge_into ~dst src =
  if
    dst.lo <> src.lo || dst.growth <> src.growth
    || Array.length dst.counts <> Array.length src.counts
  then invalid_arg "Histogram.merge_into: bucket configs differ";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  if src.n > 0 then (
    if dst.n = 0 then (
      dst.mn <- src.mn;
      dst.mx <- src.mx)
    else (
      if src.mn < dst.mn then dst.mn <- src.mn;
      if src.mx > dst.mx then dst.mx <- src.mx);
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum +. src.sum)

(* Cumulative non-empty buckets as (upper_bound, samples <= bound),
   ready for Prometheus [le] rendering; the +Inf bucket is the caller's
   to add (it is always [count t]). *)
let cumulative t =
  let acc = ref [] in
  let cum = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then (
        cum := !cum + c;
        acc := (t.bounds.(i), !cum) :: !acc))
    t.counts;
  List.rev !acc
