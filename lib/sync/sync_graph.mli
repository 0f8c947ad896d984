(** The synchronization graph of a whole view (Definition 2.1).

    Materializes the weighted digraph whose nodes are the events of a view
    and whose edges come from the bounds mapping; indexes event ids to
    dense node ids so the generic shortest-path code applies. *)

(** Definition 2.1's edges with exact weights in [Q], computed from the
    declared bounds independently of the cells {!Edges} builds for the
    AGDP: each {!Edges} weight is [D] times the matching one here. *)

type edge = { src : Event.id; dst : Event.id; w : Q.t }

val proc_edges : System_spec.t -> prev:Event.t -> next:Event.t -> edge list
val msg_edges : System_spec.t -> send:Event.t -> recv:Event.t -> edge list

val of_view : System_spec.t -> View.t -> edge list
(** All synchronization-graph edges of a view, in view order. *)

type t

val build : System_spec.t -> View.t -> t
val graph : t -> Digraph.t
val node_of : t -> Event.id -> int

val dist_from : t -> Event.id -> (Event.id -> Ext.t)
(** Single-source distances out of an event.
    @raise Bellman_ford.Negative_cycle on inconsistent specifications. *)

val dist_to : t -> Event.id -> (Event.id -> Ext.t)
(** Distances {e into} an event (single-sink, via the reversed graph). *)
