(** Real-socket {!Net_intf.NET}: one bound UDP socket per endpoint.

    The local clock is an affine view of the wall clock,
    [lt = offset + rate * wall], read as its floor tick
    ({!Clock.floor_tick}, like every runtime's reading) and clamped
    monotone — so a peer process
    can emulate a skewed, offset clock while the reference node runs
    [offset = 0, rate = 1] and its local time {e is} the wall time.  On
    localhost all processes share the wall clock, which is what lets the
    smoke test check end-to-end soundness: every peer's interval must
    contain the reference node's local time.

    [drop] injects receive-side Bernoulli loss (seeded, per-endpoint)
    without needing root or tc(8); the smoke test runs with
    [drop = 0.15] to exercise the re-announce machinery.

    The socket is nonblocking: [recv ~timeout] with a positive timeout
    performs one select wakeup, and [recv ~timeout:Q.zero] is a pure
    nonblocking poll ([EWOULDBLOCK] surfaces as [None]) — so a caller
    drains an entire kernel queue burst per readiness wakeup by looping
    zero-timeout receives until [None].  (An injected drop also returns
    [None], ending the burst one datagram early; the still-readable
    socket makes the next wakeup immediate, so nothing is lost beyond
    the injected datagram itself.) *)

type t

val create :
  ?offset:Q.t ->
  ?rate:Q.t ->
  ?drop:float ->
  ?seed:int ->
  port:int ->
  unit ->
  t
(** Bind a UDP socket on [port] ([0] picks a free port; read it back
    with {!port}).  [rate] must be positive. *)

val port : t -> int
val close : t -> unit

val wall : unit -> Q.t
(** Wall-clock seconds as an exact rational (microsecond resolution),
    rebased to the process {!epoch}.  Keeping local times at
    seconds-since-start magnitude (instead of Unix-epoch ~1.8e9 s) is
    what lets Q's float-enclosure comparison tier resolve the
    microsecond-scale differences the AGDP hot loop lives on; at epoch
    magnitude every comparison would fall back to exact bigint
    cross-multiplication and a busy session falls seconds behind its
    socket. *)

val epoch : unit -> int
(** The wall epoch (Unix seconds subtracted from every {!wall}
    reading), fixed at the first reading — or by {!set_epoch}.  The
    default is the enclosing 2^17-second boundary, so independently
    started processes on one host agree on it (keeping the localhost
    soundness cross-check exact) without any coordination. *)

val set_epoch : int -> unit
(** Pin the wall epoch before any reading is taken — how a restarted
    checkpointing runtime keeps its local clock monotone across the
    crash: it persists {!epoch} beside its checkpoints and restores it
    here, so the revived session's clock continues past its snapshot
    instead of restarting near zero.
    @raise Invalid_argument if a different epoch is already fixed. *)

val addr_of_string : string -> (Unix.sockaddr, string) result
(** Parse ["HOST:PORT"] (numeric IP or resolvable name). *)

val loopback : int -> Unix.sockaddr
(** [127.0.0.1:port]. *)

include Net_intf.NET with type t := t and type addr = Unix.sockaddr
