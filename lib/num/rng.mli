(** Deterministic pseudo-random numbers (SplitMix64).

    The simulator must be reproducible: the same seed yields the same
    execution, so experiments can be re-run and counterexamples replayed.
    OCaml's [Random] is avoided to keep the stream stable across compiler
    versions. *)

type t

val create : int -> t
(** [create seed]. *)

val split : t -> t
(** An independent generator (for per-link / per-clock streams). *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. @raise Invalid_argument when
    [bound <= 0]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** True with probability [p]. *)

val q_between : t -> Q.t -> Q.t -> Q.t
(** Uniform rational in [[lo, hi]] on a grid of 2^20 points; exact
    endpoints included.  [lo = hi] returns the point. *)

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)
