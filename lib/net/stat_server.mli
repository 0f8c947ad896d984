(** Live metrics exposition endpoint ([clocksync peer/hub
    --stat-port]).

    A minimal single-threaded TCP responder: every connection gets one
    HTTP/1.0 [200] response whose body is [render ()] (the Prometheus
    text from {!Expo.render} in practice), then the connection closes.
    The listening socket is non-blocking; call {!poll} from the
    protocol drive loop (the runtimes already wake at least every
    0.2 s) and every waiting client is answered without threads or
    blocking the loop. *)

type t

val create :
  ?host:Unix.inet_addr -> port:int -> render:(unit -> string) -> unit -> t
(** Bind and listen on [host:port] (default host: loopback; port 0
    picks a free port — see {!port}).
    @raise Unix.Unix_error when binding fails (port in use, etc.). *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val poll : t -> unit
(** Accept and answer every client currently waiting; returns
    immediately when there are none. *)

val close : t -> unit
