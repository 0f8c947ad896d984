(** Per-node runtime of the simulator: one drifting clock plus the full
    algorithm stack riding on it — the optimal CSA, the optional
    validation mirror, and the scenario's {!Baseline} instances, all fed
    from the very same messages.

    This is the simulator's realization of a {e processor} in the paper's
    model; {!Engine} is left with scheduling, traffic generation and
    bookkeeping only.  Nothing here touches the agenda or the transport:
    a node turns (real time, message) into envelopes and estimates, and
    that is all. *)

(** What actually crosses a link.  The CSA payload travels Codec-encoded —
    the real wire format end to end; each baseline's wire rides alongside,
    one per entry of [baselines], in the same order.  Application-level
    message kinds are the engine's business and are deliberately absent. *)
type envelope = { wire : string; baseline_wires : Baseline.wire list }

type t = {
  proc : Event.proc;
  clock : Clock.t;
  csa : Csa.t;
  mirror : Mirror.t option;
  baselines : Baseline.instance list;  (** the scenario's, in its order *)
  parents : Event.proc list;  (** next hops toward the source *)
  prof : Prof.t;  (** scenario profiler (times codec encode/decode) *)
}

val create :
  Scenario.t ->
  rng:Rng.t ->
  links:(Event.proc * Event.proc) list ->
  sink:Trace.sink ->
  Event.proc ->
  t
(** Boot processor [p]: a random initial offset (except at the source), a
    drifting clock per the scenario's clock policy, and the algorithm
    stack the scenario enables.  [sink] is threaded into the CSA (liveness
    and oracle events).  Draws from [rng]; call in increasing [p] order
    for a reproducible stream.  Every algorithm runs on the scenario's
    spec {!System_spec.charge}d for floored readings. *)

val revive :
  Scenario.t ->
  clock:Clock.t ->
  parents:Event.proc list ->
  csa:Csa.t ->
  now:Q.t ->
  Event.proc ->
  t
(** Rebuild processor [p]'s stack after a crash, around a {!Csa.restore}d
    core.  The clock is the one the node crashed with (hardware keeps
    ticking through a reboot); baselines restart from scratch at the
    clock's current reading; the validation mirror is dropped.  Draws
    nothing from any rng, so reviving keeps a run's random streams
    aligned with its crash-free twin. *)

val lt_at : t -> rt:Q.t -> int
(** What the node's clock reads at real time [rt]: its true reading
    floored to whole ticks ({!Clock.floor_ticks}), the int every
    algorithm takes. *)

val prepare_send : t -> dst:Event.proc -> msg:int -> lt:int -> envelope * int
(** Record the send on every enabled algorithm and build the envelope;
    also returns the number of piggybacked history events (the
    communication-overhead measure of Lemma 3.2). *)

val receive : t -> src:Event.proc -> msg:int -> lt:int -> envelope -> unit
(** Record the delivery on every enabled algorithm (decodes the wire
    payload exactly once). *)

val estimates : t -> lt:int -> (string * Interval.t) list
(** Per-algorithm source-time estimates at local time [lt], the optimal
    CSA first, then the baselines in the scenario's order. *)

val validate : t -> bool option
(** Cross-check the CSA estimate against the brute-force
    {!Reference.estimate} on the mirror's view: [None] when the node has
    no mirror (validation off), otherwise whether they agree exactly. *)
