(** Binary min-heap keyed by (real time, sequence number).

    The discrete-event engine's agenda, the loopback fabric's delivery
    and driver schedules, and the hub's session timers.  The sequence
    number makes the order total and deterministic: entries pushed
    earlier break time ties first. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> at:Q.t -> 'a -> unit
(** Sequence numbers are assigned internally in push order. *)

val pop : 'a t -> (Q.t * 'a) option
val peek_live : 'a t -> live:(Q.t -> 'a -> bool) -> (Q.t * 'a) option
(** Lazy deletion: pop entries while the earliest one fails [live], then
    return the survivor (left in place).  A schedule whose entries go
    stale instead of being removed (a timer moved, a packet consumed)
    pushes the new entry and lets this discard the old one when it
    surfaces. *)
