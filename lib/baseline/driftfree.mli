(** The drift-free algorithm with a "fudge factor" — the practical
    adaptation the paper's introduction describes and rejects as
    non-optimal ([18]).

    The Patt-Shamir–Rajsbaum drift-free algorithm is rerun over a sliding
    window of recent events, with all clocks pretended perfect (same-
    processor edges get weight 0).  The result is then widened by a fudge
    factor that restores soundness: any path in the window graph traverses
    each processor's timeline at most over its retained local span, so
    adding [Σ_p dev_p · span_p] on each side covers the drift the window
    ignored.  Knowledge older than the window survives only as an
    {e anchor} — the last computed interval, widened by the local drift
    bound as time passes.

    It consumes the same full-information payloads as the optimal
    algorithm, so comparisons are apples-to-apples on identical traffic.

    Soundness is preserved (tests check containment); optimality is not:
    the window fudge and anchor widening are exactly what the optimal
    algorithm avoids by reasoning on the true drift-weighted graph. *)

type t

val create :
  window:Q.t ->
  ?recompute:Q.t ->
  System_spec.t ->
  me:Event.proc ->
  lt0:int ->
  t
(** [window] is the local-time span of events retained for the graph
    computation; larger windows tighten the graph part but pay a larger
    fudge.  [recompute] (default [window / 8]) is how often — in local
    time — the window graph is re-solved, matching the paper's "run a new
    version of the algorithm every short while"; between recomputations
    the last result is propagated under the drift bound.  [lt0] is in
    ticks. *)

val name : string

val on_send : t -> payload:Payload.t -> unit
(** Observe my own outgoing message ([payload] as returned by [Csa.send];
    only its send event is used). *)

val on_recv : t -> msg:int -> lt:int -> payload:Payload.t -> unit
(** Observe an incoming message, received at [lt] ticks, and recompute
    the window estimate. *)

val estimate_at : t -> lt:Q.t -> Interval.t

val retained_events : t -> int
