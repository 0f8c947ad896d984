(** The optimal and efficient external clock synchronization algorithm for
    drifting clocks (Section 3 of the paper — the main result).

    One [Csa.t] is the synchronization layer of one processor.  It is
    {e passive}: it never initiates messages; the application (the paper's
    "send module") decides when to send, and the CSA fills in / reads out
    the piggybacked payload.

    Internally it composes:
    - the full-information propagation protocol (Lemma 3.1–3.3): at every
      point the processor knows exactly its local view of the execution;
    - the AGDP structure {!Agdp} (Lemma 3.4–3.5): exact
      synchronization-graph distances between the {e live} points of that
      view, garbage-collected per Definition 3.1 (under [validate], a
      {!Fw_oracle} shadow cross-checks every one of them);
    and answers with [ext_L = LT(p) − d(sp, p)], [ext_U = LT(p) + d(p, sp)]
    (Theorem 2.1), which is optimal: no algorithm can output a smaller
    interval on any indistinguishable execution.

    Local times passed to the event functions must be non-decreasing. *)

type t

val create :
  ?lossy:bool ->
  ?validate:bool ->
  ?sink:Trace.sink ->
  ?prof:Prof.t ->
  ?neighbors:Event.proc list ->
  System_spec.t ->
  me:Event.proc ->
  lt0:Q.t ->
  t
(** Boot the processor: records its [Init] event at local time [lt0].
    [lossy] enables the retransmission bookkeeping of Section 3.3 (the
    loss-detection hooks then require that every message is eventually
    reported delivered or lost).

    [neighbors] (default: every spec neighbor of [me]) are the
    processors this one exchanges messages with.  The history keeps one
    frontier per neighbor and drops an event once every frontier covers
    it, so a processor that serves only some of its spec neighbors (a
    hub cohort session) must name them: an idle neighbor's frontier
    never advances and would pin every event in H for good.

    [validate] mirrors every AGDP insert and kill onto the naive
    {!Fw_oracle} reference.  Both must accept or both reject each
    mutation ({!Agdp.Negative_cycle} from both is re-raised); after every
    accepted one, and on {!restore}, the live sets and all live-pair
    distances are compared, and every distance query is answered by both.
    Any divergence raises [Failure] naming both sides.  [sink] receives
    [Liveness] events on every live-set change plus the AGDP structure's
    [Oracle_insert]/[Oracle_gc] events (defaults to {!Trace.null}).
    [prof] times each insert and kill as an ["agdp_insert"]/["agdp_kill"]
    span (then ["fw_insert"]/["fw_kill"] under [validate]), closed even
    when the mutation raises. *)

val me : t -> Event.proc
val spec : t -> System_spec.t

val local_event : t -> lt:Q.t -> unit
(** Record an internal event (useful to anchor an estimate at a local
    time, though {!estimate_at} subsumes it). *)

val send : t -> dst:Event.proc -> msg:int -> lt:Q.t -> Payload.t
(** The application sends message [msg] to neighbor [dst] at local time
    [lt]; the returned payload must travel with the message.  Message ids
    must be globally unique. *)

val receive : t -> msg:int -> lt:Q.t -> Payload.t -> unit
(** The application received message [msg] carrying [payload] at local
    time [lt]. *)

val on_msg_delivered : t -> msg:int -> unit
(** Loss-detection hook (Section 3.3): [msg] is known delivered. *)

val on_msg_lost : t -> msg:int -> unit
(** Loss-detection hook (Section 3.3): [msg] is known lost.  Un-livens the
    corresponding send point; at the sender also re-buffers the payload
    events for retransmission. *)

val msg_known_lost : t -> msg:int -> bool
(** Has a loss verdict (local timeout or a peer's gossiped ring) been
    applied to [msg]?  The net layer consults this before integrating a
    late-arriving datagram: the verdict stands, so such data must be
    discarded rather than received (Section 3.3). *)

val inflight : t -> (int * Event.proc) list
(** Messages this node sent that still await a delivery or loss verdict,
    as [(msg id, destination)] sorted by id (empty in reliable mode).
    Preserved by {!snapshot}/{!restore}: after a restart the net runtime
    re-arms an acknowledgement deadline for each. *)

val estimate : t -> Interval.t
(** Optimal bounds on the source time at this processor's last event. *)

val estimate_at : t -> lt:Q.t -> Interval.t
(** Optimal bounds on the source time when the local clock shows [lt]
    (at or after the last event): the last-event bounds widened by the
    worst-case drift over the local elapse, which is exactly the optimal
    estimate for a virtual event at [lt]. *)

val last_lt : t -> Q.t

val peer_clock_bounds : t -> Event.proc -> Interval.t
(** [peer_clock_bounds t w] bounds what processor [w]'s clock shows {e right
    now} (at this processor's last event) — an internal-synchronization
    style output derived from the same live-point distances: with [q] the
    last known event of [w] and [p] my last event, the real elapse
    [Δ = RT(p) − RT(q)] is bounded by Theorem 2.1, and [w]'s clock advanced
    by [Δ/rate] with [rate ∈ [rmin_w, rmax_w]].  Returns the full line when
    nothing is known about [w]. *)

(** {1 Introspection for tests and benchmarks} *)

val live_count : t -> int
(** Current number of live points [L] in this processor's view. *)

val peak_live_count : t -> int
val history_size : t -> int
val peak_history_size : t -> int

val oracle_relaxations : t -> int
(** The AGDP structure's cumulative relaxation count (its
    machine-independent work measure; see {!Agdp.relaxations}). *)

val events_processed : t -> int
val events_reported : t -> int
val live_event_ids : t -> Event.id list
val known_upto : t -> Event.proc -> int

val dist_between : t -> Event.id -> Event.id -> Ext.t
(** Distance between two live points in this processor's AGDP graph
    (test hook for the Lemma 3.4 invariant).
    @raise Invalid_argument when either point is not live. *)

(** {1 Persistence}

    The whole synchronization state — knowledge frontiers, history
    buffer, live-point distance matrix, liveness bookkeeping — serialized
    for crash recovery.  The state is small (Theorem 3.6's
    [O(L² + K1·D)]), so snapshots are cheap.  A restored instance behaves
    identically to the original; the spec is not serialized and must be
    supplied again. *)

val snapshot : t -> string

val restore :
  ?validate:bool ->
  ?sink:Trace.sink ->
  ?prof:Prof.t ->
  ?neighbors:Event.proc list ->
  System_spec.t ->
  string ->
  t
(** The optional arguments choose the runtime wiring of the revived
    instance exactly as in {!create} (they are not part of the serialized
    state); a snapshot taken with or without [validate] restores either
    way.  A saved frontier for a spec neighbor outside
    [neighbors] is dropped: such a neighbor was never sent anything.
    @raise Failure on malformed input. *)

val restore_reader :
  ?validate:bool ->
  ?sink:Trace.sink ->
  ?prof:Prof.t ->
  ?neighbors:Event.proc list ->
  System_spec.t ->
  Codec.reader ->
  t
(** {!restore} over an existing {!Codec.reader} positioned at the blob —
    how an enclosing serializer ({!Session.restore}) revives the CSA
    embedded in its own snapshot without carving off a string copy.
    Consumes the reader to its end ([Failure] on trailing bytes). *)
