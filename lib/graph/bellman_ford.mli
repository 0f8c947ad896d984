(** Single-source shortest paths with negative edge weights.

    This is the workhorse of the {e reference} (inefficient, general)
    optimal synchronization algorithm of Patt-Shamir and Rajsbaum: the
    paper's Section 2.3 computes distances in the synchronization graph
    with Bellman-Ford. *)

exception Negative_cycle
(** Raised when the graph has a negative-weight cycle, i.e. the view and
    its bounds mapping admit no execution (an inconsistent system
    specification). *)

val sssp : Digraph.t -> int -> Ext.t array
(** [sssp g src] is the distance array from [src]; unreachable nodes map
    to [Inf].  @raise Negative_cycle as described above. *)
