(** Executable reference specification of the Session protocol.

    A conformance monitor folds {!Trace.event}s into an abstract
    protocol state — per-pair message-id floors, accepted-message sets,
    the sent/lost ledgers, peer session parity, crashed nodes — and
    checks the guarded transition relation of the Session spec at every
    step (DESIGN.md §15 has the rule-by-rule table).  The relation is sound
    for both simulator traces (reordering delivery, crash-as-loss) and
    socket-runtime traces (including trailerless kill -9 victims and
    post-recovery runs whose pre-crash history is in another file).

    Rule slugs (stable identifiers):
    - ["send_id_monotone"]: per (src, dst), Send msg ids strictly
      increase — write-ahead checkpointing makes this survive recovery.
    - ["receive_unique"]: no (src, dst, msg) accepted twice (the dedup
      floor's observable projection, weakened to tolerate reordering).
    - ["lost_requires_send"]: a loss verdict names a message this trace
      sent (lifted once a [Recover] appears: restored senders may lose
      pre-trace messages).
    - ["retransmit_requires_lost"]: re-reporting only after a
      Section 3.3 loss verdict.
    - ["optimal_uncontained"]: the optimal estimate must contain the
      true source time.
    - ["peer_down_not_up"]: every [Peer_down] consumes an earlier
      [Peer_up] token for that peer.  Counting semantics, not strict
      alternation: sessions sharing one sink (a swarm process) each
      legitimately mark the same peer up, so a duplicate [Peer_up] is
      unobservable on the joined stream.
    - ["crash_crashed"] / ["crashed_node_active"]: a crashed node is
      silent until its [Recover].
    - ["time_monotone"]: each node's finite timestamps never step
      backwards (per node, not globally: a swarm shares one sink
      between sessions whose emulated clocks run at different offsets;
      unattributed events are not time-checked).
    - ["reported_*"]: the trace already contains a
      [Protocol_violation] event (offline replay only). *)

type violation = { rule : string; detail : string }

type t
(** Mutable monitor state.  [check] updates it even when it reports a
    violation (the event is treated as accepted), so monitoring
    continues past the first failure. *)

val create : ?suffix:bool -> unit -> t
(** [~suffix:true] replays a truncated tail of a stream (a flight-ring
    dump holds only the last events): the rules that need history from
    before the window — ["lost_requires_send"],
    ["retransmit_requires_lost"], ["peer_down_not_up"] — are lifted,
    while the self-contained rules (duplicates, floors, containment,
    parity going forward, timestamps) still apply. *)

val check : t -> Trace.event -> violation option
val events_seen : t -> int
val violations : t -> int

val state_summary : t -> string
(** One-line rendering of the abstract state (sizes of the ledgers,
    session parity, crash set) for violation reports. *)

(** {1 Offline replay} *)

type report = {
  index : int;  (** 0-based position of the violating event *)
  event : Trace.event;
  violation : violation;
  state : string;  (** {!state_summary} at the violating step *)
}

val run : ?suffix:bool -> Trace.event list -> report option
(** Replay a full event list (e.g. a parsed JSONL trace) against the
    relation; [Some] is the first violation.  Unlike the online
    monitor, a [Protocol_violation] event in the input is itself a
    conformance failure (rule ["reported_<rule>"]).  [~suffix] as in
    {!create} — use it for flight-ring dumps. *)

val render_report : report -> string

(** {1 Online monitor} *)

val monitor :
  ?on_violation:(Trace.event -> violation -> unit) ->
  ?state:t ->
  Trace.sink ->
  Trace.sink
(** [monitor base] wraps a sink: every event is forwarded to [base]
    unchanged, then checked; a fresh violation additionally emits a
    typed {!Trace.Protocol_violation} into [base] (so the JSONL trace,
    the {!Metrics} counter, and the Prometheus exposition all see it)
    and calls [on_violation].  Incoming [Protocol_violation] events are
    forwarded but never re-flagged.  When monitoring is off, simply do
    not wrap — the disabled cost is zero, same discipline as
    {!Prof}. *)
