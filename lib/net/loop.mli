(** Event loop binding a {!Session} to a {!Net_intf.NET}.

    Single-threaded: one blocking receive with a timeout derived from
    the session's next deadline, then timers, then a flush of whatever
    the session queued.  The same functor body runs over real UDP
    ({!Udp}) in the CLI and over the deterministic fabric ({!Loopback})
    under [dune runtest]. *)

module Make (N : Net_intf.NET) : sig
  type t

  val create : ?prof:Prof.t -> net:N.t -> session:Session.t -> unit -> t
  (** [prof] times each poll iteration as a ["net_poll"] span (select
      wait included). *)

  val net : t -> N.t
  val session : t -> Session.t

  val learn : t -> peer:Event.proc -> N.addr -> unit
  (** Bind [peer] to an address (replacing any previous binding — a peer
      may rebind its port) and mark it reachable.  Addresses are also
      learned implicitly from every valid incoming frame, so only the
      initiating side needs static configuration. *)

  val poll : t -> max_wait:Q.t -> unit
  (** One loop iteration: fire due timers, flush, wait up to [max_wait]
      (capped by the session's next deadline) for one datagram, dispatch
      it, flush again.  One datagram per poll keeps the interleaving the
      deterministic loopback equivalence tests pin down; the many-client
      drain lives in {!Hub}. *)
end
