(** All-pairs shortest paths on a dense distance matrix.

    Used as a ground-truth oracle in tests of the incremental APSP update
    (Lemma 3.5 / Ausiello et al.), and for one-shot distance matrices over
    small views. *)

exception Negative_cycle

val apsp : Digraph.t -> Ext.t array array
(** [apsp g] is the full distance matrix of [g].
    @raise Negative_cycle when some diagonal entry becomes negative. *)
