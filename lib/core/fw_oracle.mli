(** Naive reference implementation of the AGDP problem (Section 3.2).

    Keeps the {e entire} accumulated graph — dead nodes included, since
    shortest live-to-live paths may route through them — and answers
    queries by recomputing all-pairs shortest paths from scratch with
    Floyd–Warshall over every node ever inserted.  Obviously correct
    straight from Section 3.2's problem statement, and deliberately free
    of the incremental cleverness of {!Agdp}, which makes it the
    cross-checking shadow that {!Csa.create}'s [~validate] mirrors every
    AGDP insert and kill onto.  Its comparisons use the exact tier
    ({!Q.compare_exact}) alone, so it shares no float fast path with
    {!Agdp}.

    The recompute is cached and invalidated on [insert] (a [kill] cannot
    change live-pair distances, Lemma 3.4), so query bursts between
    insertions cost one recompute. *)

type t

exception Negative_cycle
(** The same exception as {!Agdp.Negative_cycle}, so callers (and
    {!Csa}'s [validate] cross-check) see one failure mode. *)

val create : scale:int -> unit -> t
(** An empty structure whose edges arrive as cells on [(1/scale)·Z]. *)

val insert :
  t -> key:int -> in_edges:(int * int) list -> out_edges:(int * int) list ->
  unit
(** Same contract as {!Agdp.insert}, including exception safety: a raise
    leaves the structure unchanged.  Each weight [w·D] is read back as
    the exact [Q] value [w], so the shortest paths run in exact
    arithmetic, independent of the AGDP's int sums. *)

val kill : t -> int -> unit
val mem : t -> int -> bool
val dist : t -> int -> int -> Ext.t
val size : t -> int
val live_keys : t -> int list

val relaxations : t -> int
(** Total Floyd–Warshall cell-relaxation attempts across all recomputes —
    the same machine-independent unit as {!Agdp.relaxations}, counted over
    a vastly more expensive schedule ([Θ(n³)] per insertion, [n] the
    all-time node count). *)

val peak_size : t -> int
(** Peak {e live} count, to match {!Agdp.peak_size} (the dead nodes this
    implementation additionally retains are its private inefficiency). *)

val restore : Agdp.snapshot -> t
(** Rebuilds a complete digraph over the snapshot's live nodes whose edge
    weights are the snapshot's lattice cells read back as exact values
    [d = cell/D]; since the matrix is triangle-closed, distances are
    reproduced exactly. *)
