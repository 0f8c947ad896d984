(** Structured trace layer: one stream of typed events for every run.

    The paper's stack is layered (Figure 1: send module, full-information
    propagation, AGDP); this module gives each layer one place to report
    what it did.  Producers ({!Csa}, {!Agdp}, {!Engine}) emit {!event}
    values into a {!sink}, which is nothing but a closure over events.
    Consumers pick one, or {!tee} several: {!null} (discard), {!Metrics}
    (aggregate counters — the single source of the engine's summary
    numbers), {!Flight} (a ring of the latest events), {!Conform}'s
    monitor, or {!jsonl} (machine-readable log, one JSON object per line;
    schema documented in DESIGN.md, "Trace schema").

    Timestamps are simulated real time as floats ([nan] when the producer
    has no clock, e.g. the distance oracle).  Processors are plain ints.
    The module depends on nothing but the standard library so every layer
    can use it without dependency cycles. *)

type event =
  | Send of {
      t : float;
      src : int;
      dst : int;
      msg : int;
      events : int;  (** payload size in events *)
      bytes : int;  (** Codec-encoded payload size on the wire *)
    }
  | Receive of { t : float; src : int; dst : int; msg : int }
  | Lost of { t : float; msg : int }
      (** emitted when the loss oracle decides the fate at send time *)
  | Estimate of {
      t : float;
      node : int;
      algo : string;
      width : float;  (** [infinity] when unbounded *)
      contained : bool;  (** true source time inside the interval *)
    }
  | Validation of { t : float; node : int; ok : bool }
      (** cross-check of the efficient estimate against the reference
          algorithm (only emitted when validation is enabled) *)
  | Liveness of { node : int; live : int }
      (** live-point count of [node]'s view after an event insertion *)
  | Oracle_insert of { key : int; live : int }
  | Oracle_gc of { key : int; live : int }
      (** distance-oracle node garbage-collected (Definition 3.1) *)
  | Net_tx of { t : float; dst : int; kind : string; bytes : int }
      (** net runtime: frame put on the wire ([kind] is the frame kind
          label, [bytes] the whole-frame size) *)
  | Net_rx of { t : float; src : int; kind : string; bytes : int }
      (** net runtime: well-formed frame accepted from the wire *)
  | Net_drop of { t : float; reason : string }
      (** net runtime: incoming bytes rejected (bad frame, bad checksum,
          config mismatch, undecodable payload) *)
  | Peer_up of { t : float; peer : int }
      (** net runtime: session with [peer] established *)
  | Peer_down of { t : float; peer : int }
      (** net runtime: session with [peer] lost (silence past the
          receive timeout, or an explicit bye) *)
  | Retransmit of { t : float; peer : int; msg : int }
      (** net runtime: data message [msg] declared lost after an ack
          timeout; its events will be re-reported (Section 3.3) *)
  | Checkpoint of { t : float; node : int; bytes : int }
      (** fault layer: [node]'s state written durably ([bytes] is the
          encoded snapshot size).  Write-ahead: a checkpoint precedes
          every externalization of the state it covers. *)
  | Crash of { t : float; node : int }
      (** fault layer: [node] lost its in-memory state (crash or leave) *)
  | Recover of { t : float; node : int }
      (** fault layer: [node] restarted from its last checkpoint (or
          joined the network) *)
  | Link_down of { t : float; u : int; v : int }
      (** fault layer: the undirected link [u—v] was cut (edge churn);
          messages on it — including those already in flight — are
          declared lost through the Section 3.3 oracle *)
  | Link_up of { t : float; u : int; v : int }
      (** fault layer: the link [u—v] healed *)
  | Hub_cohort of {
      t : float;
      cohort : int;
      clients : int;  (** members assigned to this cohort *)
      established : int;  (** members currently up *)
      frames : int;  (** valid client frames handled, cumulative *)
      batched : int;  (** frames that rode a burst drain, cumulative *)
      coalesced : int;
          (** frames that shared a per-tick flush with an earlier frame
              to the same client, cumulative *)
    }
      (** hub runtime: one cohort's health gauges, emitted on the hub's
          sample cadence.  Counters are cumulative; consumers keep the
          latest value per cohort. *)
  | Protocol_violation of {
      t : float;
      node : int;
      rule : string;  (** stable identifier of the violated rule *)
      detail : string;  (** human-readable context for the violation *)
    }
      (** conformance layer: the run broke a Session protocol rule.
          Emitted by the live monitor ({!Conform} wrapped around a sink)
          or by {!Session} itself when a peer's payload violates the
          wire contract.  [rule] identifies the invariant (e.g.
          ["dedup_monotone"]); [detail] carries the offending values. *)
  | Span of { name : string; dur : float }
      (** profiler: one timed hot-path operation ([name] is the
          operation label, e.g. ["agdp_insert"]; [dur] is wall-clock
          seconds).  Emitted by {!Prof} only when profiling is on. *)

type sink
(** A consumer of events: a closure over [event -> unit]. *)

val emit : sink -> event -> unit

val null : sink
(** Discards everything (the default everywhere). *)

val tee : sink -> sink -> sink
(** [tee a b] forwards every event to [a] then [b]. *)

val callback : (event -> unit) -> sink
(** The sink that calls [f] on every event. *)

(** {1 Event schema}

    One table row per constructor gives its JSONL label, its flight tag
    and its ordered, typed fields; every codec is a walker over it (the
    table itself is in trace.ml, and in DESIGN.md, "Trace schema"). *)

(** A field's type.  A [Float] carries the value JSON [null] reads back
    as: [nan] for timestamps and span durations, [infinity] for
    estimate widths. *)
type _ ty = Int : int ty | Str : string ty | Bool : bool ty | Float : float -> float ty

val label : event -> string
(** The ["event"] discriminator of the JSONL encoding (["send"],
    ["receive"], ..., ["span"]). *)

val tag : event -> int
(** The event's one-byte tag in the flight dump (0..21, in declaration
    order). *)

type visitor = { field : 'a. string -> 'a ty -> 'a -> unit }

val iter_fields : visitor -> event -> unit
(** Calls [field name ty value] for each field of the event, in table
    order. *)

type source = { read : 'a. string -> 'a ty -> 'a }

val of_tag : int -> source -> event option
(** Rebuilds the event with flight tag [n], reading its fields from the
    source in table order; [None] for an unknown tag.  Exceptions raised
    by [read] propagate. *)

val json_of_event : event -> Json_out.t
(** The JSONL encoding of one event: an object with an ["event"]
    discriminator field plus the event's payload fields. *)

val event_of_json : Json_out.t -> (event, string) result
(** Inverse of {!json_of_event} (used by the offline analyzer).
    Non-finite floats are encoded as JSON [null] and read back per their
    {!ty}.  With that convention,
    [event_of_json (json_of_event ev) = Ok ev] for every constructor. *)

val jsonl : out_channel -> sink
(** Writes each event as one JSON object per line and flushes the
    channel after every line, so the trace survives [kill -9] up to the
    last complete line.  The channel is not closed by the sink; close it
    after the run. *)
