(** One process, one socket, thousands of clients: the Section 4 NTP
    pattern at scale.

    A hub is the reference node (processor 0) of a star spec, serving
    clients 1..N-1 from a single {!Net_intf.NET} endpoint.  The N-1
    per-client protocol state machines are sharded into {e cohorts}:
    one {!Session} per cohort carries the member subset (via
    [Session.create ~peers]), so the members of a cohort share one CSA
    — one history, one AGDP matrix — instead of paying for N-1
    independent copies.  Sharding is invisible on the wire: every
    cohort session runs as processor 0 of the {e full} spec, so the
    hello digest matches what an ordinary [clocksync peer] computes,
    and per-client interval trajectories are unchanged (the source's
    timeline is rigid — paper Section 2 forces its drift to zero — so
    detour paths through cohort-mates can never beat a client's direct
    exchanges; the hub equivalence QCheck property pins this down).

    Message ids: each cohort session allocates the default
    [0 + k * N] stride.  Cohorts therefore emit {e identical} id
    sequences, but to disjoint clients, and loss-verdict gossip only
    ever travels inside the cohort that owns the id — a client can
    never hear about another cohort's id.  Client-allocated ids
    ([g + k * N], g >= 1) never collide with either.

    The drive loop is readiness-driven and batched: one blocking
    receive per tick, then a zero-timeout burst drain of the kernel
    queue, at most 256 datagrams per wakeup (decode in place from the single receive buffer), then {e
    one} flush of the cohorts' queued acks and heartbeats — frames to
    the same client leave together ("coalesced") instead of one flush
    per handled frame.

    A wakeup costs the work due, not a pass over every cohort.  A
    min-heap holds each cohort's next session deadline (lazily deleted:
    a moved deadline pushes a new entry, the stale one is dropped when
    it surfaces), so a poll ticks only the cohorts whose timer came up
    and {!next_deadline} reads the heap's top.  A dirty set names the
    cohorts whose session moved since the last flush — a handled frame,
    a fired timer, or a frame queued through {!Session.set_on_output} —
    and a flush drains and re-reads only those, in cohort order, so the
    hub sends exactly what a tick-and-flush-everyone pass would. *)

type stats = {
  clients : int;
  established : int;  (** members currently up, across cohorts *)
  frames : int;  (** valid client frames handled (cumulative) *)
  batched : int;
      (** frames that rode a burst: handled after the first datagram of
          their readiness wakeup, without another select *)
  coalesced : int;
      (** frames that shared their flush with an earlier same-tick frame
          to the same client *)
}
(** Cumulative hub health counters (functor-independent so a report can
    carry them whatever the underlying NET). *)

module Make (N : Net_intf.NET) : sig
  type t

  val create :
    ?sink:Trace.sink ->
    ?prof:Prof.t ->
    net:N.t ->
    spec:System_spec.t ->
    cohort_size:int ->
    mk_session:(idx:int -> members:Event.proc list -> (Session.t, string) result) ->
    unit ->
    (t, string) result
  (** Shard clients 1..N-1 into cohorts of [cohort_size] consecutive
      ids and build one session per cohort through [mk_session] (which
      must return a processor-0 session of the full spec restricted to
      [members] — the CLI's checkpoint-or-fresh wiring lives there, so
      the hub itself stays storage-free).  Errors propagate from
      [mk_session] (e.g. an unusable checkpoint). *)

  val net : t -> N.t
  val cohorts : t -> int
  val clients : t -> int
  val session : t -> int -> Session.t
  (** The cohort's session, for checkpoint wiring and tests.  A frame
      queued on it directly (e.g. [Session.send_data]) marks the cohort
      dirty, so the next poll sends it and re-reads the cohort's timers. *)

  val members : t -> int -> Event.proc list

  val poll : t -> max_wait:Q.t -> unit
  (** One drive tick: tick the cohorts whose timer is due, flush, wait
      up to [max_wait] (capped by the earliest cohort deadline) for a
      datagram, burst-drain the queue, flush once more.  Costs
      O((due + touched) log K), not O(K). *)

  val next_deadline : t -> Q.t option
  (** Earliest pending timer across all cohorts (local time), as of the
      last poll: the top of the deadline heap. *)

  val stats : t -> stats

  val emit_stats : t -> now:Q.t -> unit
  (** Emit one [hub_cohort] trace event per cohort (cumulative
      counters); the CLI calls this on its sample cadence, which is
      what feeds [Expo]'s hub gauges and [clocksync analyze]. *)

  val stop : t -> now:Q.t -> unit
  (** Bye to every reachable client, then a final flush. *)

  val all_clients_done : t -> bool
  (** Every client of every cohort was up at some point and has since
      said bye — the hub's natural exit condition.  O(1): a count kept
      up to date by each flush. *)
end
