(** The Accumulated Graph Distance Problem (Section 3.2 of the paper).

    The input is a growing weighted digraph Γ: in each step a new node is
    added together with edges that connect {e live} nodes to it (in either
    direction), after which some nodes may be marked dead.  The structure
    maintains a succinct graph [G] over the live nodes only, such that the
    weight of edge [(x, y)] in [G] equals the exact distance [d_Γ(x, y)]
    (Lemma 3.4).  An insertion costs [O(L²)] time where [L] is the number
    of live nodes (Lemma 3.5), using the incremental all-pairs update of
    Ausiello et al.

    Nodes are identified by client-chosen integer keys.

    Distances are exact on one numeric path (DESIGN.md Section 11):
    the caller fixes a lattice denominator [D] at creation (for a CSA,
    its spec's {!System_spec.lattice}) and hands every weight [w] as
    the native int [w·D] (a cell, as {!Edges} builds it); every
    distance and candidate sum stays within [±(2^61 − 1)/D].  The
    matrix holds cells [d·D], and a relaxation is one int add and one
    compare. *)

type t

exception Negative_cycle
(** Raised by {!insert} when the accumulated graph acquires a
    negative-weight cycle (for synchronization graphs this means the view
    admits no execution). *)

val create : ?sink:Trace.sink -> scale:int -> unit -> t
(** An empty structure on the lattice [(1/scale)·Z].  [sink] receives
    an [Oracle_insert] event after every committed insertion and an
    [Oracle_gc] event after every {!kill}, each carrying the resulting
    live count (defaults to {!Trace.null}).
    @raise Invalid_argument unless [1 <= scale <= 2^40]. *)

val insert :
  t ->
  key:int ->
  in_edges:(int * int) list ->
  out_edges:(int * int) list ->
  unit
(** Add a node.  [in_edges] are [(x, w·D)] edges [x → key]; [out_edges]
    are [(y, w·D)] edges [key → y]; every endpoint must be a live node.
    Its scratch is kept with the matrix: nothing allocated grows with [L].

    Exception safety: a failed insert leaves the structure exactly as it
    was before the call — the new node's row and column are validated
    against the committed matrix before any mutation, so after catching
    either exception [size], [live_keys], [dist], and [relaxations] are
    all unchanged and the structure remains fully usable.
    @raise Invalid_argument on duplicate keys, self-loops, dead/unknown
    endpoints, or a weight, distance or sum beyond [±(2^61 − 1)/scale]
    (checked, never wrapped).
    @raise Negative_cycle when the insertion would create a
    negative-weight cycle. *)

val kill : t -> int -> unit
(** Remove a node from the live set, discarding its row and column.
    Distances between the remaining live nodes are unchanged (Lemma 3.4).
    When occupancy drops to a quarter of capacity the matrix is halved
    (floored at the initial capacity), so after churn the footprint
    tracks the live set instead of its historical peak.
    @raise Invalid_argument when the key is not live. *)

val mem : t -> int -> bool
(** Whether the key is currently live. *)

val dist : t -> int -> int -> Ext.t
(** Exact distance in the accumulated graph between two live nodes.
    @raise Invalid_argument when either key is not live. *)

val dist_cells : t -> int -> int -> int
(** {!dist} as the cell [d·D], or [max_int] when there is no path. *)

val size : t -> int
(** Number of live nodes [L]. *)

val capacity : t -> int
(** Current matrix stride (the flat array holds [capacity²] cells) —
    exposed for space accounting and the shrink-on-kill tests. *)

val live_keys : t -> int list

val relaxations : t -> int
(** Total number of matrix-cell relaxation attempts performed by this
    structure so far — the machine-independent cost measure for
    Lemma 3.5's [O(L²)]-per-insert claim. *)

val peak_size : t -> int
(** Maximum number of live nodes ever held — the space measure for
    Theorem 3.6's [O(L²)] claim. *)

(** {1 Snapshots}

    The full state of the structure, for crash-recovery persistence
    ({!Csa.snapshot}).  [restore (snapshot t)] behaves identically to
    [t]. *)

type snapshot = {
  s_scale : int;  (** the lattice denominator [D] *)
  s_keys : int array;  (** live keys in slot order *)
  s_cells : int array;
      (** distance matrix over those slots, row-major [count × count]:
          [d(i, j)·D] is at index [i * count + j], and [max_int] stands
          for "no path" (the live structure's own cells, re-strided to
          [count]) *)
  s_relaxations : int;
  s_peak : int;
}

val snapshot : t -> snapshot

val restore : ?sink:Trace.sink -> snapshot -> t
(** Rebuilds the structure on the snapshot's lattice.
    @raise Invalid_argument unless [1 <= D <= 2^40], when a cell other
    than [max_int] lies outside [±(2^61 − 1)], or when the snapshot
    cannot come from any insert/kill sequence: a matrix of the wrong
    size, a repeated key, a diagonal cell other than [0], or a pair with
    [d(i, j) + d(j, i) < 0]. *)
