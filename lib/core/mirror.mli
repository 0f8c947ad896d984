(** Test oracle: reconstructs a processor's full local view from the same
    inputs its {!Csa} instance sees.

    The efficient algorithm deliberately forgets dead events; to check its
    output against the {e reference} optimal algorithm (which needs the
    whole view), drive a [Mirror.t] alongside each [Csa.t] with identical
    calls and hand [view] to {!Reference.estimate}.  Event construction
    (sequence numbering) matches [Csa] exactly. *)

type t

val create : System_spec.t -> me:Event.proc -> lt0:int -> t
val view : t -> View.t

val last_id : t -> Event.id
(** The id of this processor's latest event. *)

val local_event : t -> lt:int -> unit

val send : t -> payload:Payload.t -> unit
(** Mirror a send: the payload returned by [Csa.send]. *)

val receive : t -> msg:int -> lt:int -> payload:Payload.t -> unit
