(** Real-time specification of an external synchronization system.

    Bundles the network (bidirectional links), the per-processor clock
    drift bounds, the per-link transit bounds, and the designated source
    processor whose clock runs at the rate of real time. *)

type t

val make :
  n:int ->
  source:Event.proc ->
  drift:(Event.proc -> Drift.t) ->
  links:(Event.proc * Event.proc * Transit.t) list ->
  t
(** Links are bidirectional: [(u, v, tr)] installs the transit bound [tr]
    in both directions.  The source's drift is forced to {!Drift.perfect}
    regardless of [drift].
    @raise Invalid_argument on out-of-range processors, self-loops,
    duplicate links, or bounds whose {!lattice} denominator would pass
    [2^40] or whose {!lattice} constants would leave [±(2^61 − 1)]
    (the message names the drift or transit bound that does). *)

val uniform :
  n:int ->
  source:Event.proc ->
  drift:Drift.t ->
  transit:Transit.t ->
  links:(Event.proc * Event.proc) list ->
  t
(** All non-source processors share [drift]; all links share [transit]. *)

(** {1 Readings and the lattice}

    Every reading an algorithm sees is an int count of ticks (DESIGN.md
    Section 4), so every synchronization-graph weight [w] lies in
    [(1/D)·Z] for the spec's fixed {!lattice} [D]: {!Edges} builds it
    as the int cell [w·D] from the constants below. *)

val ticks_per_second : int
(** [1_000_000]: the tick is 1 µs. *)

val tick : Q.t
(** [1/ticks_per_second] seconds. *)

val q_of_ticks : int -> Q.t
(** A count of ticks as seconds, built with no gcd. *)

val max_cell : int
(** [2^61 − 1]: every cell stays within [±max_cell]. *)

val lattice : t -> int
(** [D]: the lcm of the tick's denominator and those of each
    processor's [(rmax − 1)·tick], [(1 − rmin)·tick] and each finite
    transit bound; at most [2^40]. *)

val charge : t -> t
(** The spec an algorithm runs on when its readings are floored to
    whole ticks.  With [q] the smallest whole number of ticks at or
    above [tick·rmax] (largest [rmax] of any processor), each link's
    transit bound becomes [[lo − q, hi + q]] ({!Transit.widen}), and
    {!quantum} is [q], which every estimate adds to its upper end.  A
    floored reading stands for the instant the clock showed it, less
    than [tick·rmax] before the true one; DESIGN.md Section 4 derives
    both widenings from that.  Same [n], source, drift, links and
    {!lattice}.  Computed once per spec; charging a charged spec
    returns it. *)

val cells_per_tick : t -> int
(** [D / ticks_per_second]; per processor, {!up_cells} is
    [(rmax − 1)·D / ticks_per_second] and {!down_cells}
    [(1 − rmin)·D / ticks_per_second]. *)

val up_cells : t -> Event.proc -> int
val down_cells : t -> Event.proc -> int

type link_cells = { lo_cells : int; hi_cells : int option }
(** A link's transit bound as [lo·D] and [hi·D] ([None]: [hi = ∞]). *)

val link_cells_exn : t -> Event.proc -> Event.proc -> link_cells
(** The cells of {!transit_exn}'s bound. *)

val quantum : t -> Q.t
(** [0] for a declared spec, [q] for a {!charge}d one. *)

val cover : t -> Interval.t -> Interval.t
(** An estimate of the source time at the instant a reading stands for,
    its upper end widened by {!quantum} so that it covers the true
    instant too: what every algorithm outputs on a charged spec. *)

val n : t -> int
val source : t -> Event.proc
val drift : t -> Event.proc -> Drift.t

val transit : t -> Event.proc -> Event.proc -> Transit.t option
(** [transit t u v] is the bound for messages from [u] to [v], or [None]
    when there is no link. *)

val transit_exn : t -> Event.proc -> Event.proc -> Transit.t
val neighbors : t -> Event.proc -> Event.proc list
val degree : t -> Event.proc -> int
val max_degree : t -> int
val n_links : t -> int
(** Number of undirected links. *)

val diameter : t -> int
(** Hop diameter of the underlying undirected graph; [max_int] when
    disconnected. *)

val is_connected : t -> bool
