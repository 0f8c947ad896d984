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

    Every local reading the simulator hands to an algorithm, and every
    reading the socket runtime takes, is a whole number of ticks.  With
    a tick of 1/[ticks_per_second] and drift bounds in ppm, every
    synchronization-graph weight then lies in [(1/D)·Z] for a small
    fixed [D], which is what keeps {!Agdp} on native ints. *)

val ticks_per_second : int
(** [1_000_000]: the tick is 1 µs. *)

val tick : Q.t
(** [1/ticks_per_second] seconds. *)

val floor_tick : Q.t -> Q.t
(** The largest whole tick at or below a reading. *)

val ceil_tick : Q.t -> Q.t
(** The smallest whole tick at or above a reading. *)

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

val tick_at_or_after : t -> Q.t -> Q.t
(** [tick_at_or_after c rt] is the real time of the first whole tick of
    [c] at or after real time [rt] (that is [rt] itself when [c] shows a
    whole tick there).  Less than [tick·rmax] later than [rt]. *)
