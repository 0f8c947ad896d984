(** Message transit-time bounds for a link.

    For a message with send event [p] and receive event [q], any physical
    system guarantees [RT(q) − RT(p) ∈ [0, ⊤]]; many systems know tighter
    bounds.  [hi] may be infinite (completely asynchronous link). *)

type t = private { lo : Q.t; hi : Ext.t }

val make : lo:Q.t -> hi:Ext.t -> t
(** @raise Invalid_argument unless [0 <= lo <= hi]. *)

val of_q : Q.t -> Q.t -> t
val asynchronous : t
(** [[0, ⊤]]: delivery takes arbitrary non-negative time. *)

val exact : Q.t -> t
(** A link with a known fixed delay. *)

val widen : Q.t -> t -> t
(** [widen q t] is [[lo − q, hi + q]]: the bound a link's transit obeys
    between the instants its two readings stand for
    ({!System_spec.charge}).  Its [lo] may be negative, which no
    declared bound's is. *)

val equal : t -> t -> bool
