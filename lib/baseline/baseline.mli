(** The practical algorithms the paper argues are not optimal (§1, §4),
    as one closed set behind one signature.

    A baseline is a value of {!t}; a running copy on one processor is an
    {!instance}; what it piggybacks on a message is a {!wire}.  The
    simulator holds a list of instances per node and feeds them the very
    messages the optimal CSA sees, so every comparison is on an
    identical execution.  Adding a baseline is one constructor in each
    of the three types and one arm in each function below. *)

type t =
  | Driftfree of { window : Q.t }
      (** drift-free algorithm re-run over a sliding window, widened by a
          fudge factor ({!Driftfree}) *)
  | Ntp  (** round-trip intervals combined by intersection ({!Ntp}) *)
  | Cristian of { rtt : Q.t }
      (** best quick round trip below [rtt] ({!Cristian}) *)
  | Ftsp  (** flooding from an elected root ({!Ftsp}) *)
  | Marzullo  (** per-peer anchors, interval sweep ({!Marzullo}) *)

val name : t -> string
(** The algorithm's name in estimates, traces and reports. *)

val all : t list
(** Every baseline with its default parameters (30 s window, 50 ms
    round-trip threshold), in the canonical order: driftfree, ntp,
    cristian, ftsp, marzullo. *)

val of_name : string -> t option
(** The member of {!all} called [name]. *)

val of_names : string list -> (t list, string) result
(** The members of {!all} named in the list, in {!all}'s order;
    ["optimal"] is accepted and skipped.  [Error] names any unknown
    algorithm. *)

(** One baseline running on one processor. *)
type instance =
  | Driftfree_st of Driftfree.t
  | Ntp_st of Ntp.t
  | Cristian_st of Cristian.t
  | Ftsp_st of Ftsp.t
  | Marzullo_st of Marzullo.t

(** What an instance piggybacks on one message.  The drift-free
    baseline sends nothing of its own: it reads the CSA payload. *)
type wire =
  | Driftfree_w
  | Ntp_w of Ntp.wire
  | Cristian_w of Cristian.wire
  | Ftsp_w of Ftsp.wire
  | Marzullo_w of Marzullo.wire

val create : t -> System_spec.t -> me:Event.proc -> lt0:int -> instance
(** Start baseline [t] at processor [me], whose clock reads [lt0]
    ticks.  Each entry point takes readings in ticks, as the CSA does,
    and converts them to rationals for the baseline's own arithmetic. *)

val instance_name : instance -> string
(** [name] of the baseline the instance runs. *)

val on_send :
  instance ->
  dst:Event.proc ->
  msg:int ->
  lt:int ->
  payload:Payload.t ->
  wire
(** Record a send at local time [lt]; [payload] is the CSA payload the
    same message carries (the drift-free baseline reads it instead of a
    wire of its own). *)

val on_recv :
  instance ->
  src:Event.proc ->
  msg:int ->
  lt:int ->
  payload:Payload.t ->
  wire ->
  unit
(** Record a delivery.
    @raise Invalid_argument when [wire] was built by another baseline. *)

val estimate_at : instance -> lt:int -> Interval.t
(** Source-time interval at local time [lt]. *)
