(** Load generation for the hub: fleets of in-process clients.

    Two modes share one report shape.  {!run_loopback} stands up a hub
    {e and} K clients on one deterministic {!Loopback} fabric — the
    scale experiments (E19) and the >= 1000-client acceptance run use
    it, with virtual time and seeded per-client clocks, no sockets.
    {!run_udp} runs K real-socket clients (each its own ephemeral UDP
    port, seeded offset/skew) against an external
    [clocksync hub] process — the smoke test's mode.  Every client is
    an ordinary {!Session} + {!Loop}; nothing in the fleet knows it is
    talking to a hub rather than a [clocksync serve] node. *)

type client_report = {
  id : int;
  established : bool;  (** the hub was up from this client's view at the end *)
  samples : int;
  finite : int;  (** samples whose interval width was finite *)
  uncontained : int;  (** samples whose interval missed the truth *)
  last_width : float;
}

type report = {
  clients : int;
  established : int;
  converged : int;  (** clients whose final sample had finite width *)
  sound : int;  (** clients with zero uncontained samples *)
  widths : float array;  (** final finite widths, sorted ascending *)
  hub : Hub.stats option;  (** loopback mode only (the hub is in-process) *)
  fabric_delivered : int;  (** loopback mode: datagrams delivered *)
  elapsed_wall : float;  (** wall seconds the whole run took *)
  per_client : client_report list;
}

val p_width : report -> float -> float
(** [p_width r 99.] is the nearest-rank p99 of the final widths;
    [nan] when no client converged. *)

val star_spec : nodes:int -> drift_ppm:int -> hi_ms:int -> System_spec.t
(** The CLI's uniform star: source 0, shared drift bound, transit
    [[0, hi_ms]] — hub, swarm and [clocksync peer] must all build the
    same spec or the hello digest refuses the pairing. *)

val run_loopback :
  ?seed:int ->
  ?loss:float ->
  ?cohort:int ->
  ?duration:Q.t ->
  ?sample:Q.t ->
  ?heartbeat:Q.t ->
  ?drift_ppm:int ->
  ?hi_ms:int ->
  ?max_offset_ms:int ->
  ?sink:Trace.sink ->
  ?prof:Prof.t ->
  clients:int ->
  unit ->
  report
(** Hub + [clients] loopback clients on one fabric, driven to virtual
    time [duration] with samples (and [hub_cohort] stat emissions)
    every [sample].  [prof] goes to the hub alone, so its [hub_poll]
    spans time the hub apart from the clients and the fabric.
    Per-client offsets in [[0, max_offset_ms]] and skews in
    [[-drift_ppm, drift_ppm]] come from [seed]; same seed, same
    report.  The hub runs offset 0 / rate 1, so the virtual clock
    is the source truth each sample is checked against. *)

val run_udp :
  ?seed:int ->
  ?drop:float ->
  ?duration:Q.t ->
  ?sample:Q.t ->
  ?heartbeat:Q.t ->
  ?drift_ppm:int ->
  ?hi_ms:int ->
  ?max_offset_ms:int ->
  ?sink:Trace.sink ->
  nodes:int ->
  clients:int ->
  server_addr:Unix.sockaddr ->
  unit ->
  report
(** [clients] real-UDP clients (processor ids 1..clients of an
    [nodes]-processor star — [nodes] must match the hub's [--nodes])
    against [server_addr], for wall-clock [duration].  One thread
    round-robins nonblocking polls across the fleet; [drop] injects
    receive-side loss per client.  On localhost the wall clock is the
    hub's truth, so containment is checked end to end. *)

module Lhub : module type of Hub.Make (Loopback.Net)
module Uhub : module type of Hub.Make (Udp)
module Unet : module type of Loop.Make (Udp)
