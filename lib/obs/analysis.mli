(** Offline JSONL trace analyzer ([clocksync analyze]).

    Parses a trace back ({!Json_in} + {!Trace.event_of_json}),
    re-aggregates the events through a fresh {!Metrics}, and renders a
    human report: the nonzero scalar counters ({!Metrics.rows}),
    convergence timeline, per-algorithm accuracy percentiles, per-peer
    session health, hub-cohort gauges, and hot-path span profiles.

    Float round-trips are exact and events replay in file order, so
    {!summary_matches} can demand byte-identical agreement between the
    recomputed aggregates and the trailer the run wrote — any
    difference is a trace bug, not float noise.

    Crash tolerance: a [kill -9] mid-write may cut the final line; a
    newline-less unparseable tail is reported via [truncated], not
    [bad].  Unparseable content anywhere else lands in [bad]. *)

type t = {
  source : string;
  events : Trace.event list;  (** in file order *)
  metrics : Metrics.t;  (** re-aggregation of [events] *)
  trailer : Json_out.t option;  (** last ["summary"] record, if any *)
  bad : (int * string) list;  (** 1-based non-blank line number, reason *)
  truncated : bool;  (** final line cut mid-write *)
  total_lines : int;  (** non-blank lines, truncated tail included *)
}

val of_string : ?source:string -> string -> t
val read : string -> (t, string) result

val summary_matches : t -> (unit, string) result
(** [Ok ()] when there is no trailer, or when the trailer equals the
    recomputed summary byte for byte; otherwise the first differing
    field. *)

val estimate_samples : t -> int
(** Total estimate samples across all algorithms. *)

val render : t -> string
(** The full human report. *)
