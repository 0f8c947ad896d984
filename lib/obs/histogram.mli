(** Log-bucketed latency histogram: constant memory, mergeable, one
    [log] call per record.

    Bucket 0 holds every value [<= lo] (zero, negatives and [nan]
    included, so recording is total); the last bucket is an overflow
    with upper bound [+infinity]; bucket [i] in between covers
    [(lo*growth^(i-1), lo*growth^i]].  The defaults span 1 ns to
    ~1000 s in 162 buckets with growth [2^(1/4)] (quantiles exact to
    within ~9.5% relative error).  Exact count / sum / min / max are
    tracked alongside the buckets.

    All operations are deterministic: feeding the same values in any
    order yields the same buckets, and the same values in the same
    order yields bit-identical [sum] — which is what lets the offline
    analyzer reproduce the trailer summary exactly. *)

type t

val create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> t
(** Defaults: [lo = 1e-9], [growth = 2^(1/4)], [buckets = 162].
    @raise Invalid_argument on non-positive [lo], [growth <= 1] or
    [buckets < 2]. *)

val record : t -> float -> unit
val count : t -> int
val sum : t -> float

val min_value : t -> float
(** [nan] when empty. *)

val max_value : t -> float
(** [nan] when empty. *)

val mean : t -> float
(** [nan] when empty. *)

val quantile : t -> float -> float
(** Nearest-rank quantile by bucket upper bound, clamped to the exact
    observed max; [nan] when empty.
    @raise Invalid_argument outside [0, 1]. *)

val merge_into : dst:t -> t -> unit
(** Add [src]'s samples into [dst].
    @raise Invalid_argument when bucket configurations differ. *)

val copy : t -> t

val cumulative : t -> (float * int) list
(** Non-empty buckets as [(upper_bound, samples <= upper_bound)] in
    increasing bound order — the Prometheus [le] series minus the
    [+Inf] bucket (which is always [count t]). *)
