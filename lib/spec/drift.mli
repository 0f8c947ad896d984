(** Clock drift bounds.

    Following the paper's example (Section 2), a processor clock's rate is
    specified by bounds on [dRT/dLT] — real seconds elapsed per local
    second shown.  A clock of accuracy 100 ppm has
    [dRT/dLT ∈ [0.9999, 1.0001]]: if it shows that [ℓ] local units passed
    between [q] and [p], then [RT(p) − RT(q) ∈ [0.9999·ℓ, 1.0001·ℓ]].
    The source clock is perfect: [rmin = rmax = 1]. *)

type t = private { rmin : Q.t; rmax : Q.t }

val make : rmin:Q.t -> rmax:Q.t -> t
(** @raise Invalid_argument unless [0 < rmin <= rmax]. *)

val of_ppm : int -> t
(** [of_ppm k] is [[1 - k/10^6, 1 + k/10^6]].
    @raise Invalid_argument unless [0 <= k < 10^6]. *)

val perfect : t
(** The source clock: rate exactly 1. *)

val is_perfect : t -> bool

val max_deviation : t -> Q.t
(** [max (rmax - 1, 1 - rmin)]: worst-case rate error, used by the
    fudge-factor baseline. *)

val rt_bounds : t -> Q.t -> Q.t * Q.t
(** [rt_bounds d elapsed_lt] is the [(lo, hi)] range of real time that may
    pass while the clock advances by [elapsed_lt >= 0]. *)

