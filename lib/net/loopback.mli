(** Deterministic in-process network fabric: the test-side
    {!Net_intf.NET}.

    A {!fabric} owns a virtual clock and a delivery queue; {!endpoint}s
    attach with an affine local clock ([offset + rate * vnow], read as
    its floor tick like every runtime's, {!Clock.floor_tick}), so
    skewed and offset nodes are exercised without wall-clock time.
    Sends draw a transit delay (and optionally a loss verdict) from a
    seeded {!Rng}; receives never block and never advance time — only
    the {!run} driver moves the clock, always straight to the next
    interesting instant (packet delivery, session deadline, or script
    entry).  Same seed, same schedule, bit-for-bit: the property tests
    rely on it, and the whole suite touches no real sockets. *)

type fabric
type endpoint

val fabric :
  ?seed:int -> ?loss:float -> delay_lo:Q.t -> delay_hi:Q.t -> unit -> fabric
(** [loss] drops each datagram independently at send time.  Delays are
    drawn uniformly from [[delay_lo, delay_hi]]; [delay_lo] must be
    positive, which guarantees the {!run} driver always makes progress
    (a zero-delay reply could be due at the very instant it was sent). *)

val endpoint :
  fabric -> id:int -> ?offset:Q.t -> ?rate:Q.t -> unit -> endpoint
(** Attach processor [id]; its address {e is} [id].  [rate] must be
    positive. *)

val vnow : fabric -> Q.t
val delivered : fabric -> int
val dropped : fabric -> int

val virtual_of_local : endpoint -> Q.t -> Q.t
(** The inverse of the endpoint's affine clock (its true reading,
    before the floor); {!run_drivers} wants deadlines in virtual time,
    sessions speak local time. *)

(** The NET instance ({!Net_intf.NET} with [addr = int]). *)
module Net : Net_intf.NET with type t = endpoint and type addr = int

module L : module type of Loop.Make (Net)

type driver = {
  poll : unit -> unit;
  next_vt : unit -> Q.t option;
  addr : int option;
}
(** Anything the scheduler can drive: a non-blocking poll step, the next
    {e virtual-time} deadline ([None] when idle), and the endpoint
    address it receives on — the scheduler wakes a driver only for its
    own datagrams and due deadlines, so a thousand idle drivers cost
    nothing per delivery.  [addr = None] falls back to polling on every
    step.  {!driver_of_loop} wraps a [Loop]; the hub supplies its own. *)

val driver_of_loop : L.t -> driver

val run_drivers :
  fabric ->
  drivers:driver list ->
  until:Q.t ->
  ?script:(Q.t * (unit -> unit)) list ->
  unit ->
  unit
(** Generalized {!run}: drive arbitrary {!driver}s until the virtual
    clock reaches [until].  Each step jumps to the next due instant
    (packet delivery, driver deadline, or script entry), fires due
    script hooks, then polls every driver until no deliverable datagram
    remains. *)

val run :
  fabric ->
  loops:L.t list ->
  until:Q.t ->
  ?script:(Q.t * (unit -> unit)) list ->
  unit ->
  unit
(** Drive the loops until the virtual clock reaches [until]: repeatedly
    jump to the next due instant, fire any [script] hooks scheduled at
    or before it (hooks see the fabric mid-run — tests use them to force
    data rounds at exact virtual times), and poll every loop until no
    deliverable datagram remains. *)
