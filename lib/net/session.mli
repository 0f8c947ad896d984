(** Per-peer session state over an unreliable datagram transport.

    One {!t} wraps one {!Csa.t} and runs the protocol against every
    neighbor in the spec: handshake (hello / hello_ack with a config
    digest), heartbeat data cadence, ack-based loss detection with
    bounded-exponential-backoff re-announce, peer liveness timeouts, and
    in-band gossip of loss verdicts (Section 3.3 assumes every processor
    eventually learns each message's fate; over a real network that
    knowledge must travel in-band, so every [Data] frame carries the
    sender's recent lost-message ids).

    The module is transport-free and clock-free: callers pass [~now]
    (the endpoint's local time) into every entry point, and outgoing
    frames accumulate in a queue drained with {!drain}.  {!Loop} binds
    it to a {!Net_intf.NET}.  This is what makes the whole protocol
    stack runnable — and deterministic — under [dune runtest]. *)

type config = {
  me : Event.proc;
  spec : System_spec.t;
  lossy : bool;  (** run the Section 3.3 ack/retransmit machinery *)
  heartbeat : Q.t;  (** data cadence per established peer *)
  announce_base : Q.t;  (** initial hello retry interval *)
  announce_cap : Q.t;  (** backoff ceiling (bounded exponential) *)
  ack_timeout : Q.t;
      (** lossy mode: declare a data message lost this long after
          sending with no ack.  Must exceed a round trip's upper bound
          or sound deliveries get declared lost (see DESIGN.md). *)
  peer_timeout : Q.t;  (** silence before a peer is marked down *)
}

val default_config : me:Event.proc -> spec:System_spec.t -> config
(** Localhost-friendly defaults: heartbeat 0.5 s, announce 0.25 s
    doubling to 8 s, ack timeout 1 s, peer timeout 5 s, [lossy] on. *)

val config_digest : config -> int
(** Fingerprint of the spec shape two endpoints must agree on; carried
    in hello frames and checked before pairing. *)

type t

val create :
  ?sink:Trace.sink ->
  ?prof:Prof.t ->
  ?alloc_msg:(unit -> int) ->
  ?preestablished:bool ->
  ?peers:Event.proc list ->
  config ->
  now:Q.t ->
  t
(** Boot the node's CSA at local time [now] with one session slot per
    spec neighbor.  [alloc_msg] overrides message-id allocation (ids
    must be globally unique; the default strides by node count).
    [preestablished] skips the handshake — every peer starts reachable
    and up, which the deterministic equivalence tests use to mirror the
    simulator exactly.  [peers] restricts the session to a subset of the
    spec neighbors (the hub shards node 0's neighbor set across cohort
    sessions this way); it must be a subset of
    [System_spec.neighbors spec me] or the call raises
    [Invalid_argument].  The config digest is unchanged by the
    restriction — members cannot tell a sharded counterpart from a
    whole one. *)

val snapshot : t -> string
(** Serialize everything a restart needs: the CSA blob plus the session
    layer's durable state — the msg-id allocation counter, per-peer
    dedup floors, and the loss-verdict gossip ring.  Liveness state
    (addresses, established flags, timers) is excluded; a restarted
    process re-handshakes. *)

val restore :
  ?sink:Trace.sink ->
  ?prof:Prof.t ->
  ?alloc_msg:(unit -> int) ->
  ?peers:Event.proc list ->
  config ->
  now:Q.t ->
  string ->
  (t, string) result
(** Rebuild a session from {!snapshot} output at local time [now].
    [peers] restricts the revived session to a neighbor subset exactly
    as in {!create}.
    Refuses (like the hello handshake) when the snapshot's config digest
    does not match [config], when it belongs to a different node id, or
    when the peers it recorded are not exactly the requested members (a
    hub restarted with another [--cohort] would otherwise revive one
    cohort's state for other clients); the error names both lists.
    Every peer starts unestablished — the restored node re-announces and
    re-handshakes — but dedup floors survive, so a peer's stale data
    frames from before the crash are still rejected; and messages we
    sent that never got a verdict get a fresh ack deadline each, so the
    loss oracle eventually rules on them.  Total: returns [Error] on any
    malformed blob, never raises. *)

val set_checkpoint : t -> (string -> unit) -> unit
(** Install a durable-write callback.  Once set, the session writes a
    {!snapshot} {e before} every data frame leaves (the payload carries
    our events and moves the allocator) and {e before} every ack
    (acks license the sender to garbage-collect) — the write-ahead
    discipline that makes a crash at any instant recoverable.  Emits a
    [Checkpoint] trace event per write. *)

val csa : t -> Csa.t
val is_peer : t -> Event.proc -> bool

val peer_reachable : t -> peer:Event.proc -> now:Q.t -> unit
(** The transport learned an address for [peer]; start announcing. *)

val handle : t -> now:Q.t -> bytes:int -> Frame.t -> unit
(** Dispatch one decoded frame.  Never raises on adversarial input:
    protocol violations become [net_drop] trace events. *)

val note_drop : t -> now:Q.t -> string -> unit
(** Record an undecodable datagram (called by the loop when
    {!Frame.decode} fails). *)

val tick : t -> now:Q.t -> unit
(** Fire every due timer: hello re-announce (with backoff), heartbeats,
    ack timeouts (declaring losses), peer-silence downs.  Each timer
    fires only once its deadline, as reported by {!next_deadline}, is at
    or before [now], so a tick earlier than {!next_deadline} does
    nothing: the hub relies on this to tick only the sessions whose
    deadline came up. *)

val next_deadline : t -> Q.t option
(** Earliest pending timer, for the transport's select timeout, as the
    first whole tick ({!Clock.ceil_tick}) at or after it: readings are
    whole ticks, so no earlier reading finds it due. *)

val drain : t -> (Event.proc * string) list
(** Remove and return queued outgoing frames, oldest first. *)

val set_on_output : t -> (unit -> unit) -> unit
(** Install a hook called each time a frame is queued for {!drain}.  The
    hub uses it to learn which of its sessions have output (and moved
    timers) without scanning them all. *)

val send_data : t -> now:Q.t -> dst:Event.proc -> unit
(** Queue one data frame to [dst] immediately (heartbeats call this;
    tests and the CLI can force a round). *)

val sample : t -> now:Q.t -> ?truth:Q.t -> unit -> Interval.t
(** Estimate the source time at local time [now], emitting an
    [estimate] trace event.  [truth] enables the containment check
    (meaningful on localhost where all endpoints share a wall clock);
    without it the event reports [contained = true] vacuously. *)

val stop : t -> now:Q.t -> unit
(** Queue a bye to every reachable peer and stop announcing. *)

val established : t -> Event.proc -> bool
val peer_ids : t -> Event.proc list

val all_peers_done : t -> bool
(** Every peer was up at some point and has since said bye — the
    reference node's natural exit condition. *)
