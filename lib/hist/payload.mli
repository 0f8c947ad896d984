(** The contents a processor's CSA layer piggybacks on an outgoing message:
    the send event itself plus every event the sender does not know the
    receiver knows (Section 3.1). *)

type t = {
  send_event : Event.t; (** the send event of the carrying message *)
  events : Event.t list; (** reported events, including [send_event] *)
}

val size : t -> int
(** Number of reported events — the per-message size measure of
    Theorem 3.6. *)

val pp : Format.formatter -> t -> unit
