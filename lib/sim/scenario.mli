(** Scenario descriptions for the simulator.

    A scenario bundles the system specification, the hidden-truth knobs
    (clock rate policy, per-message delay policy, loss), the traffic
    pattern (the paper's "send module"), and which {!Baseline}s to run
    alongside the optimal CSA. *)

type traffic =
  | Ntp_poll of { period : Q.t }
      (** every non-source node polls each of its parents (neighbors
          closer to the source) every [period] of local time; parents
          respond immediately — the communication pattern Section 4
          attributes to NTP *)
  | Gossip of { mean_gap : Q.t }
      (** a random node messages a random neighbor roughly every
          [mean_gap] of real time; no responses *)
  | Ring_token of { gap : Q.t }
      (** a token circulates 0 → 1 → ... → n−1 → 0, forwarded [gap]
          after receipt *)
  | Burst of { check_period : Q.t; width_target : Q.t }
      (** probabilistic-synchronization pattern (Section 4, [5]): each
          node checks its estimate every [check_period] of local time and
          fires rapid round-trip probes at a parent while the estimate is
          wider than [width_target] *)
  | Script of { sends : (Q.t * Event.proc * Event.proc) list }
      (** fully explicit send schedule — [(rt, src, dst)] one-way
          messages, no responses.  The deterministic replay pattern the
          net-layer equivalence tests use to run the simulator and the
          loopback socket runtime over the same execution. *)

type churn = { cuts : int; min_down : Q.t option; max_down : Q.t option }
(** Continuous edge churn: [cuts] seeded link cut/heal cycles drawn from
    the scenario's seed over the spec's links ({!Fault.Chaos.link_churn});
    [min_down]/[max_down] bound each outage (defaults 2% and 10% of the
    duration).  The engine compiles this into [Link_cut] fault events at
    start-up, so a churn scenario stays reproducible from its seed. *)

type t = {
  spec : System_spec.t;
  seed : int;
  duration : Q.t;  (** real-time horizon *)
  clock_policy : Clock.policy;
  clock_segment : Q.t;  (** local-time length of constant-rate segments *)
  max_offset : Q.t;
      (** initial clock readings drawn from [0, max_offset], rounded down
          to a whole {!Clock.tick} *)
  delay : Transport.delay_policy;
  loss_prob : float;  (** per-message loss probability *)
  loss_detect : Q.t;  (** latency of the loss-detection oracle (§3.3) *)
  traffic : traffic;
  baselines : Baseline.t list;
      (** baselines run beside the optimal CSA on the same messages;
          estimates and [per_algo] follow this order ({!Baseline.all}'s
          canonical order when built from names) *)
  churn : churn option;
      (** edge churn compiled into [Link_cut] faults at engine start.
          Like any fault, churn forces lossy CSA mode (severed messages
          surface as Section 3.3 losses) and is incompatible with
          [validate]. *)
  validate : bool;
      (** drive a full-view mirror per node and check, at every receive,
          that the CSA equals the reference optimal algorithm and contains
          the hidden real time (expensive; for tests and E1) *)
  validate_oracle : bool;
      (** create every node's CSA with [~validate:true]: a naive
          {!Fw_oracle} shadow mirrors every AGDP insert and kill, and the
          two are compared after every mutation (very expensive: [Θ(n³)] per insertion over the
          all-time event count; for short test runs only) *)
  series_cap : int;  (** max number of time-series samples retained *)
  trace : Trace.sink;
      (** receives every structured event of the run — sends, deliveries,
          losses, estimates, validation verdicts, liveness and oracle
          activity ({!Trace.event}); {!Trace.null} by default.  The
          engine's own metrics ride the same stream, so a scenario sink
          sees exactly what the result counters count. *)
  prof : Prof.t;
      (** hot-path span timer ({!Prof.null} by default).  When enabled,
          AGDP insert/kill, codec encode/decode and checkpoint writes are
          timed and reported as [Span] events on the profiler's own sink
          (typically teed with [trace]). *)
  faults : Fault.Injection.event list;
      (** crash/restart, join/leave and partition injections, in real
          time.  Any fault forces lossy CSA mode (crashes surface as
          message losses to the Section 3.3 machinery) and enables
          write-ahead checkpointing for every node.  Incompatible with
          [validate] (the full-view mirror cannot survive a crash). *)
  checkpoint : Fault.Policy.spec;
      (** receive-side checkpoint cadence when faults are active; sends
          always checkpoint first (see {!Fault.Policy}) *)
  checkpoint_dir : string option;
      (** when set, checkpoints go through {!Fault.Store} files in this
          directory; otherwise they live in memory (still exercising the
          same restore path) *)
}

val default : spec:System_spec.t -> traffic:traffic -> t
(** 60 s duration, uniform delays, random clock rates over 5 s segments,
    offsets up to 1 s, no loss, no baselines, no validation. *)

val lossy : t -> bool
(** Whether the run needs the Section 3.3 loss machinery: lossy CSA
    mode, loss verdicts and optimistic frontiers.  True under message
    loss, any fault, or churn. *)

val sec : int -> Q.t
(** Seconds as rational time units. *)

val ms : int -> Q.t
val us : int -> Q.t
