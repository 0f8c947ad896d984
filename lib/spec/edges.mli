(** Synchronization-graph edges (Definition 2.1 of the paper), born on
    the lattice.

    Given a view and its bounds mapping [B], the synchronization graph has
    an edge [(p, q)] with weight [w(p,q) = B(p,q) − virt_del(p,q)] whenever
    [B(p,q) < ⊤], where [virt_del(p,q) = LT(p) − LT(q)].

    Under our real-time specifications, finite bounds exist exactly for
    (i) consecutive events at one processor (clock drift bounds) and
    (ii) send/receive pairs of one message (transit bounds).

    Readings are whole ticks, so every weight lies on the spec's
    {!System_spec.lattice} [D], and each edge carries the native int
    [w·D], formed from the spec's int constants.  Every reading,
    difference and product is checked against [±(2^61 − 1)]
    ([Invalid_argument], never a wrap).  {!Sync_graph} computes the
    same weights exactly in [Q]. *)

type edge = { src : Event.id; dst : Event.id; w : int  (** [w·D] *) }

val proc_edges : System_spec.t -> prev:Event.t -> next:Event.t -> edge list
(** Both orientations between two consecutive events at one processor:
    with elapse [ℓ = LT(next) − LT(prev)], weight [(rmax − 1)·ℓ] on
    [next → prev] and [(1 − rmin)·ℓ] on [prev → next].
    @raise Invalid_argument when the events are not consecutive at one
    processor, time regresses, or a weight leaves the range. *)

val msg_edges : System_spec.t -> send:Event.t -> recv:Event.t -> edge list
(** Edges between matching send/receive events over the link's transit
    bound [[lo, hi]]: weight [LT(recv) − LT(send) − lo] on [send → recv],
    and — when [hi] is finite — [hi − (LT(recv) − LT(send))] on
    [recv → send].
    @raise Invalid_argument when [recv] does not match [send] or a
    weight leaves the range. *)

(** {1 Checked cell arithmetic}

    On operands within [±(2^61 − 1)]: the result, or [Invalid_argument]
    (led by the first argument) when it leaves that range. *)

val cell_add : string -> int -> int -> int
val cell_sub : string -> int -> int -> int
val cell_mul : string -> int -> int -> int
