(** Weighted directed graphs over dense integer node ids.

    Used for synchronization graphs (Definition 2.1 of the paper), where
    nodes are events and edge weights are
    [w(p,q) = B(p,q) - virt_del(p,q)].  Weights may be negative; parallel
    edges are collapsed to the minimum weight (only distances matter). *)

type t

val create : int -> t
(** [create n] is an edgeless graph on nodes [0 .. n-1]. *)

val n : t -> int

val add_edge : t -> int -> int -> Q.t -> unit
(** [add_edge g u v w]: directed edge [u -> v] of weight [w]; keeps the
    minimum weight if the edge already exists. *)

val succ : t -> int -> (int * Q.t) list
(** Outgoing edges of a node as [(dst, weight)]. *)

val edges : t -> (int * int * Q.t) list
val edge_count : t -> int
val reverse : t -> t
