(** Discrete-event simulator for external clock synchronization.

    Substitutes for the distributed testbed the paper assumes (see
    DESIGN.md): exact rational real time, drifting clocks within spec,
    per-message delays within the link's transit bounds (FIFO per directed
    link), every algorithm-visible event on a whole {!Clock.tick} of the
    acting node's clock (DESIGN.md §4), optional loss with a detection
    oracle (Section 3.3), and a pluggable traffic pattern playing the role
    of the "send module" of Figure 1.  The synchronization algorithms are passive throughout, as
    the paper requires.

    The engine itself is a thin scheduler over three seams: link behaviour
    lives in {!Transport} (delay policy + FIFO clamp + loss gate), the
    per-processor algorithm stacks live in {!Node_rt}, and every number
    reported here is an aggregate of the structured {!Trace.event} stream
    (a {!Metrics} sink teed with the scenario's own [trace] sink, so
    external observers see exactly what the counters count).

    Every node always runs the optimal CSA; baselines (drift-free+fudge,
    NTP-flavoured, Cristian) piggyback on the very same messages so all
    algorithms are compared on identical executions. *)

type algo_summary = {
  samples : int;  (** estimate samples recorded *)
  contained : int;  (** samples whose interval contained the true time *)
  finite : int;  (** samples with a finite-width interval *)
  mean_width : float;  (** mean over finite samples *)
  max_width : float;
  final_widths : float array;  (** per node, width at the end (inf possible) *)
}

type node_summary = {
  peak_live : int;  (** max live points [L] (Theorem 3.6) *)
  peak_history : int;  (** max [|H_v|] (Lemma 3.3) *)
  relaxations : int;  (** distance-oracle work (Lemma 3.5) *)
  events_processed : int;
  events_reported : int;  (** communication overhead (Lemma 3.2) *)
}

type result = {
  rt_end : Q.t;
  messages_sent : int;
  messages_lost : int;
  events_total : int;
  payload_events_total : int;
  payload_events_max : int;
  payload_bytes_total : int;
      (** total bytes of Codec-encoded payloads put on the wire *)
  per_algo : (string * algo_summary) list;
  per_node : node_summary array;
  series : (float * (string * float) list) list;
      (** (real time, per-algo width at the sampled node) — width of the
          node observing the delivery; [infinity] when unbounded *)
  validation_failures : int option;
      (** mirror-reference cross-check misses; [None] unless the
          scenario's [validate] is on, [Some 0] on a correct run *)
  soundness_failures : int;
      (** deliveries where the optimal CSA's interval failed to contain
          the hidden real time — checked on every run regardless of
          [validate]; must be 0 (Theorem 2.1 soundness) *)
}

val run : Scenario.t -> result

val run_nodes : Scenario.t -> result * Node_rt.t array
(** Like {!run}, additionally exposing the per-processor runtime stacks
    at the horizon — the net-layer equivalence tests compare the final
    {!Csa} states against sessions driven over the loopback fabric. *)
