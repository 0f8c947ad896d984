(** Aggregating trace sink: the single metrics source for a run.

    Attach {!sink} to a trace stream and every counter the simulator (or a
    hand-driven harness) used to tally ad hoc becomes a fold over the
    event stream: message counts, payload sizes, per-algorithm accuracy
    statistics, validation outcomes, peak liveness.  {!Engine.run} builds
    its {!Engine.result} from exactly these aggregates, so an external
    consumer teeing its own [Metrics.t] onto the same stream is guaranteed
    to reproduce the engine's numbers.

    The scalar counters live in one table, {!rows}: each row carries its
    trailer key, Prometheus name, kind and help text.  The JSONL trailer
    ({!summary_json}), the [--stat-port] exposition ({!Expo.render}) and
    [clocksync analyze] all walk that table, so a counter is one row plus
    its arm in {!on_event} (see DESIGN.md, "Exposition").  The
    per-algorithm, hub-cohort and span families stay separate. *)

type algo_stats = {
  samples : int;  (** estimate samples recorded *)
  contained : int;  (** samples whose interval contained the true time *)
  finite : int;  (** samples with a finite-width interval *)
  mean_width : float;  (** mean over finite samples; [nan] when none *)
  max_width : float;
}

type cohort_stats = {
  cohort_clients : int;
  cohort_established : int;
  cohort_frames : int;
  cohort_batched : int;
  cohort_coalesced : int;
}
(** Latest gauges one [Hub_cohort] emission carried (the producer's
    counters are cumulative, so the latest emission is the state). *)

type t

val create : unit -> t

val sink : t -> Trace.sink
(** The counting sink feeding this aggregate. *)

val on_event : t -> Trace.event -> unit
(** Feed one event directly (what {!sink} does; used by the offline
    analyzer to replay a parsed trace). *)

(** {1 Scalar counters} *)

type kind =
  | Counter  (** summed over events *)
  | Max_gauge  (** the largest value any event reported *)

type row = private {
  key : string;  (** trailer field, e.g. ["net_drops"] *)
  prom : string;
      (** exposition name: ["csync_"] ^ key, plus ["_total"] for a
          counter whose key lacks it *)
  kind : kind;
  help : string;  (** exposition HELP text *)
  slot : int;  (** the row's index in the aggregate's counter array *)
}

val rows : row list
(** Every scalar counter, in trailer order. *)

val value : t -> row -> int

(** {2 Named readers}

    Shorthands for [value t] on the rows callers use by name. *)

val sends : t -> int
val receives : t -> int
val losses : t -> int
val payload_events_total : t -> int
val payload_events_max : t -> int
val payload_bytes_total : t -> int
val validation_checks : t -> int
val validation_failures : t -> int

val soundness_failures : t -> int
(** ["optimal"] estimates that did not contain the true source time
    (tracked independently of validation; must stay 0). *)

val liveness_peak : t -> int
(** Largest live-point count reported by any node. *)

val oracle_inserts : t -> int
val oracle_gcs : t -> int

val net_drops : t -> int
(** Incoming datagrams rejected at the frame boundary. *)

val peer_ups : t -> int

val retransmits : t -> int
(** Data messages declared lost after an ack timeout (Section 3.3). *)

val checkpoints : t -> int
val checkpoint_bytes : t -> int
val crashes : t -> int
val recoveries : t -> int
val link_cuts : t -> int
val link_heals : t -> int

val protocol_violations : t -> int
(** Session protocol rules broken, as flagged by the live conformance
    monitor or by {!Session}'s own wire contract checks (must stay 0 on
    a healthy run). *)

(** {1 Per-algorithm aggregates} *)

val algo_names : t -> string list
(** Algorithms seen in [Estimate] events, in first-appearance order. *)

val algo_stats : t -> string -> algo_stats
(** All-zero stats for an algorithm never seen. *)

(** {1 Hub aggregates}

    Latest per-cohort gauges from [Hub_cohort] events; empty unless a
    hub emitted stats on this stream. *)

val hub_cohort_ids : t -> int list
(** Cohorts seen, in first-appearance order. *)

val hub_cohort : t -> int -> cohort_stats option
val hub_totals : t -> cohort_stats
(** Sums of the latest per-cohort gauges (all zero without a hub). *)

(** {1 Profiler aggregates}

    Per-operation latency histograms built from [Span] events; empty
    unless a {!Prof} was enabled on the run. *)

val span_names : t -> string list
(** Operations seen in [Span] events, in first-appearance order. *)

val span_hist : t -> string -> Histogram.t option
(** The latency histogram (seconds) for one operation. *)

val summary_json : t -> Json_out.t
(** One object with every aggregate above — the trailer record a JSONL
    trace ends with (see DESIGN.md, "Trace schema"). *)
