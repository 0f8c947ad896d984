(** Arbitrary-precision signed integers.

    The sealed build environment has no [zarith]; this module provides the
    exact integer arithmetic the synchronization algorithms need (drift
    factors such as [1 +/- 100ppm] applied to nanosecond-scale timestamps
    overflow 64-bit products).

    Representation: sign and little-endian magnitude in base 2^30, suitable
    for OCaml's 63-bit native ints.  All operations are purely functional. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native int. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native int. *)

val of_string : string -> t
(** Parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val to_float : t -> float
(** Nearest float approximation; for display and statistics only. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated toward zero
    (the remainder has the sign of [a]).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor of the absolute values; [gcd 0 0 = 0]. *)

val min : t -> t -> t
val max : t -> t -> t

val mul_int : t -> int -> t
val add_int : t -> int -> t

val pow10 : int -> t
(** [pow10 k] is [10^k] for [k >= 0]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k] for [k >= 0]. *)

val float_div : t -> t -> float
(** [float_div n d] is a float approximation of the ratio [n/d] that
    stays accurate in magnitude even when [n] and [d] separately exceed
    the float range: matched high limbs are cancelled before dividing,
    so e.g. [(10^400 + 1) / 10^400] comes out near [1.0] instead of
    [nan].  For display and statistics only. *)

val pp : Format.formatter -> t -> unit

val num_limbs : t -> int
(** Number of base-2^30 limbs in the magnitude (0 for zero); used by space
    accounting in the benchmarks. *)
