(** Edge weights extended with positive infinity.

    Synchronization-graph distances live in [Q ∪ {+∞}]: a pair of events
    with no directed path between them is at distance [+∞] (the bounds
    mapping value ⊤ of the paper). *)

type t =
  | Fin of Q.t
  | Inf

val zero : t
val of_int : int -> t

val is_fin : t -> bool

val fin_exn : t -> Q.t
(** @raise Invalid_argument on [Inf]. *)

val add : t -> t -> t
(** [Inf] absorbs. *)

val compare : t -> t -> int
(** Total order with [Inf] greatest. *)

val equal : t -> t -> bool
val min : t -> t -> t
val lt : t -> t -> bool
val le : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
