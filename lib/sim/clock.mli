(** Drifting hardware clocks for the simulator.

    A clock is a piecewise-linear monotone map between real time and local
    time whose inverse rate [dRT/dLT] stays within the processor's drift
    bound on every segment — i.e. the simulated hardware always satisfies
    the specification the synchronization algorithm assumes, which is what
    makes the containment experiments meaningful.

    Rate policies:
    - [`Fixed r]: constant inverse rate [r];
    - [`Random]: a fresh uniform rate in [[rmin, rmax]] per segment;
    - [`Adversarial]: alternate between the extreme rates [rmin] and
      [rmax] each segment (maximizes accumulated uncertainty);
    - [`Sawtooth k]: cycle through [k] evenly spaced rates. *)

type policy = [ `Fixed of Q.t | `Random | `Adversarial | `Sawtooth of int ]

(** {1 The tick}

    Every reading an algorithm sees, in the simulator, on the loopback
    fabric and on a real socket, is the floor tick of the true reading
    (DESIGN.md Section 4).  Over whole ticks every
    synchronization-graph weight lies on the spec's fixed
    {!System_spec.lattice}, where {!Agdp} runs on native ints. *)

val ticks_per_second : int
(** {!System_spec.ticks_per_second}: the tick is 1 µs. *)

val tick : Q.t
(** {!System_spec.tick}. *)

val floor_ticks : Q.t -> int
(** The number of whole ticks at or below a reading: what an algorithm
    reads when the true reading is the argument.  No gcd: the float
    enclosure settles most readings, native ints the rest.  The one
    conversion from a rational reading into ticks.
    @raise Invalid_argument past the int range. *)

val floor_tick : Q.t -> Q.t
(** {!floor_ticks} as a rational, built with no gcd
    ({!System_spec.q_of_ticks}): the floored reading on the runtimes'
    [NET.now] seam, whose timers stay rational. *)

val floor_tick_within : float -> float -> Q.t option
(** [Some (floor_tick x)] for every reading [x] in [[lo, hi]], when they
    all share one non-negative tick; [None] when they may not.  Lets a
    runtime floor a reading from float bounds on it, without building
    the exact rational. *)

val ceil_tick : Q.t -> Q.t
(** The smallest whole tick at or above a reading: the first reading at
    which a deadline at the argument is due. *)

type t

val create :
  drift:Drift.t ->
  policy:policy ->
  segment:Q.t ->
  lt0:Q.t ->
  rng:Rng.t ->
  t
(** [segment] is the local-time length of each constant-rate segment;
    [lt0] is the local reading at real time 0.
    @raise Invalid_argument when the segment is not positive or a fixed
    rate violates the drift bound. *)

val drift : t -> Drift.t

val lt_of_rt : t -> Q.t -> Q.t
(** Local reading at a real time [>= 0]. *)

val rt_of_lt : t -> Q.t -> Q.t
(** Real time at which the clock shows a local reading [>= lt0]. *)

