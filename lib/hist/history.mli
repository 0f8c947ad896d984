(** The full-information propagation protocol of Section 3.1 (Figure 2).

    Each processor [v] maintains:
    - a history buffer [H_v] of events that may still need forwarding, and
    - for each neighbor [u], a knowledge frontier [C_vu[w]] per processor
      [w]: the last event of [w] that was reported on the link [(v, u)] in
      either direction.

    On a send to [u], every known event beyond [C_vu] is attached to the
    message and [C_vu] advances to everything [v] knows; on a receive
    from [u], [C_vu] advances to the events {e reported in that message}
    (the prose rule of Section 3.1 — the figure's merged-buffer rule would
    break causal closure on path topologies, see the regression test).
    Events known by every neighbor are garbage-collected from [H_v]
    (Lemma 3.3 bounds [|H_v|]).

    Because views are causally closed, a processor's knowledge of each
    other processor's timeline is a prefix; knowledge is therefore
    represented by per-processor sequence numbers, and "last event"
    comparisons are exact even when consecutive events carry equal local
    times.

    Message loss (Section 3.3): in [lossy] mode every send keeps a
    retransmission record until the embedding message is reported
    delivered or lost by the detection mechanism the paper postulates;
    {!on_lost} rolls the frontier back and re-buffers the reported events,
    so correctness survives loss (at the price of re-reporting, i.e.
    Lemma 3.2 holds only for loss-free links). *)

type t

val create :
  n_procs:int ->
  me:Event.proc ->
  neighbors:Event.proc list ->
  ?lossy:bool ->
  unit ->
  t

val me : t -> Event.proc
val is_lossy : t -> bool

val learn_own : t -> Event.t -> unit
(** Record an event generated locally ([Init], [Internal], or the [Recv]
    event after {!integrate}).  Send events go through {!prepare_send}
    instead.  @raise Invalid_argument on foreign or out-of-order events. *)

val prepare_send : t -> Event.t -> Payload.t
(** [prepare_send t send_event] records the send event and returns the
    payload to piggyback on the outgoing message: all known events the
    destination has not been shown yet (including the send event itself).
    Advances [C_v,dst] and garbage-collects.
    @raise Invalid_argument unless the event is a send by this processor
    to a neighbor. *)

exception Not_causally_closed of string
(** A payload presupposes events this processor has not seen.  In lossy
    mode that is healthy: the datagram carrying them was lost and its
    re-report has not landed yet, so the receiver drops the payload and
    waits.  The string names the missing events. *)

val integrate : t -> Payload.t -> Event.t list
(** Merge a received payload: returns the {e previously unknown} events in
    a dependency-respecting order (ready to be inserted into a view or the
    AGDP structure one by one).  Advances the sender's frontier and
    garbage-collects.  The caller must afterwards pass its own [Recv]
    event to {!learn_own}.
    @raise Not_causally_closed when the payload is not causally closed
    with respect to current knowledge. *)

val inflight_msgs : t -> (int * Event.proc) list
(** Messages sent but not yet acknowledged or declared lost, as
    [(msg id, destination)] sorted by id; always empty in reliable mode.
    After a restore this is what still awaits a verdict — the net
    runtime re-arms an ack deadline per entry. *)

val on_delivered : t -> msg:int -> unit
(** Loss-detection hook: the message is known to have arrived.  No-op in
    reliable mode. *)

val on_lost : t -> msg:int -> unit
(** Loss-detection hook: the message is known lost.  Rolls back the
    destination frontier and re-buffers its payload for retransmission.
    No-op in reliable mode. *)

val known_upto : t -> Event.proc -> int
(** Highest sequence number known for a processor ([-1] when none). *)

val frontier : t -> neighbor:Event.proc -> Event.proc -> int
(** [C_v,neighbor[w]] as a sequence number ([-1] when nothing reported). *)

val h_size : t -> int
(** Current [|H_v|]. *)

val peak_h_size : t -> int
(** Maximum [|H_v|] ever observed — Lemma 3.3's space measure. *)

val events_reported : t -> int
(** Total events attached to outgoing messages so far (communication
    overhead measure; Lemma 3.2 makes it at most once per event per link
    direction on reliable links). *)

(** {1 Snapshots} *)

type snapshot = {
  s_known : int array;
  s_frontiers : (Event.proc * int array) list;
  s_events : Event.t list;  (** contents of [H_v] *)
  s_inflight : (int * Event.proc * Event.t list * int array) list;
      (** (msg, dst, reported events, prior frontier) — lossy mode only *)
  s_peak : int;
  s_reported : int;
}

val snapshot : t -> snapshot

val restore :
  n_procs:int ->
  me:Event.proc ->
  neighbors:Event.proc list ->
  ?lossy:bool ->
  snapshot ->
  t
(** Rebuild a protocol instance that behaves identically to the one the
    snapshot was taken from (same topology arguments required). *)
