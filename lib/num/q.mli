(** Exact rational numbers over {!Bigint}.

    All timestamps, clock rates, transit bounds, and synchronization-graph
    edge weights in this library are exact rationals, so the containment
    invariant ("the source time lies in [[ext_L, ext_U]]") can be tested
    with no rounding slack.

    Every rational also carries an outward-rounded float enclosure of
    its value ({!Approx}), fixed at construction.  {!compare} answers
    from it when it separates the operands and falls back to exact
    arithmetic when it does not, so every answer is exact either way. *)

type t

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized rational [num/den]; terms that fit
    native ints reduce through {!make_ints}.
    @raise Division_by_zero when [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints n d] is [n/d]. @raise Division_by_zero when [d = 0]. *)

val make_ints : int -> int -> t
(** [make] over native ints: normalization by native gcd and a direct
    float enclosure, no intermediate bigint arithmetic.  Semantically
    identical to [make (Bigint.of_int n) (Bigint.of_int d)]; it is the
    wire decoder's constructor for timestamps whose magnitudes fit a
    native int.  @raise Division_by_zero when [d = 0]. *)

val div_pow10 : int -> int -> t
(** [div_pow10 n k] is [n/10^k], for [0 <= k <= 18], reduced by
    stripping common factors of 2 and 5 instead of a gcd: how a count
    of decimal ticks becomes a rational.
    @raise Invalid_argument when [k] is outside [[0, 18]]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t
(** The denominator is always positive; [num]/[den] is in lowest terms. *)

val of_decimal_string : string -> t
(** Parses decimal literals such as ["1.0001"], ["-0.5"], ["3"], and
    scientific notation ["1.5e-3"].  Exponent magnitudes are capped at
    10^4 (an eager [pow10] beyond that would allocate unboundedly).
    @raise Invalid_argument on malformed input, including malformed or
    out-of-range exponents. *)

val of_float_exact : float -> t
(** The exact rational value of a finite float (every finite float is a
    dyadic rational).  @raise Invalid_argument on nan or infinities. *)

val sentinel : t
(** An out-of-band marker (its denominator is 0, which no valid rational
    has).  No operation of this module ever returns it; {!Fw_oracle} stores it
    in flat distance arrays as an unboxed "+infinity", avoiding an
    [Ext.t] allocation per matrix cell.  Arithmetic on the sentinel
    yields garbage — test {!is_sentinel} first. *)

val is_sentinel : t -> bool
(** Whether the value is {!sentinel} (denominator 0).  O(1). *)

val add : t -> t -> t
(** Fast path: operands sharing a denominator skip the cross
    multiplications (and the gcd reduction entirely when it is 1). *)

val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val neg : t -> t

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

val compare : t -> t -> int
(** Two-tier: answers from the cached float enclosures when they are
    strictly separated (no bigint work at all), otherwise falls back to
    {!compare_exact}. *)

val compare_exact : t -> t -> int
(** The exact tier alone, never consulting the float enclosures — for
    reference oracles that must stay independent of the fast path.
    Fast paths: equal denominators compare numerators directly, and
    operands of different sign never multiply. *)

(** The guaranteed float enclosure.  The sentinel's bounds are NaN, so
    no query that compares them ever concludes on it. *)
module Approx : sig
  val lo : t -> float
  (** Guaranteed lower bound ([nan] on the sentinel). *)

  val hi : t -> float
  (** Guaranteed upper bound ([nan] on the sentinel). *)
end

val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t

val to_float : t -> float
(** Nearest float approximation; for display and statistics only.
    Accurate in magnitude even when numerator and denominator separately
    exceed the float range (matched digits cancel before dividing). *)

val to_string : t -> string
(** ["num/den"], or just ["num"] when the denominator is 1. *)

val pp : Format.formatter -> t -> unit
