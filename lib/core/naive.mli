(** The general optimal algorithm of Section 2.3, as a runnable
    message-passing layer: "Send, in every message, the complete local
    view from the send point.  Merge local views in the natural way."

    Its estimates are identical to {!Csa}'s (both are the Theorem 2.1
    bounds); what differs is cost.  Every outgoing message carries the
    {e entire} view, the state is the whole event history, and each
    estimate solves shortest paths over it from scratch — the unbounded
    complexity that motivates the paper.  Used by the ablation experiment
    (E11) and as yet another cross-check oracle. *)

type t

val create : System_spec.t -> me:Event.proc -> lt0:int -> t

val send : t -> dst:Event.proc -> msg:int -> lt:int -> Payload.t
(** The payload's [events] is the complete local view (the send event
    included). *)

val receive : t -> msg:int -> lt:int -> Payload.t -> unit

val estimate : t -> Interval.t
(** Optimal bounds at the last event — Theorem 2.1 computed on the full
    view with Bellman-Ford. *)

val state_size : t -> int
(** Number of events retained — grows with the execution, unlike the
    efficient algorithm's state. *)

val last_message_size : t -> int
(** Events carried by the most recent outgoing message. *)
