(** Fault subsystem: durable checkpoints, crash/churn schedules.

    The paper keeps CSA state deliberately small — Theorem 3.6 bounds it
    by [O(L^2 + K1*D)] — and {!Csa.snapshot} serializes exactly that
    state.  This module turns the snapshot into an actual fault-tolerance
    story: {!Store} persists blobs durably and atomically for the socket
    runtime, {!Injection} names the faults a simulated run can suffer,
    and {!Chaos} draws randomized fault schedules from a seed.

    The one invariant every checkpointing runtime must preserve is
    {b write-ahead checkpointing}: a node's state must be durable
    {e before} any part of it is externalized.  A payload carries the
    sender's own events, and an acknowledgement lets the sender
    garbage-collect what the receiver acked — so a checkpoint precedes
    every send, and every receive is checkpointed before it is acked.
    Restarting from a checkpoint that misses an externalized event would
    re-issue its sequence number for a different event, silently
    corrupting every peer's distance oracle; with write-ahead checkpoints
    a restart only ever re-reports or re-receives, which the Section 3.3
    loss machinery already handles. *)

(** Durable snapshot store: one file per node, written atomically.

    File format (conventions shared with {!Frame}): magic ["CSCK"],
    version byte, node id varint, blob length varint, the opaque blob,
    and an FNV-1a-32 checksum of everything preceding it as a 4-byte
    little-endian trailer.  Writes go to a temporary file in the same
    directory and are renamed into place, so a crash mid-write leaves
    the previous checkpoint intact. *)
module Store : sig
  type t

  val create : dir:string -> node:int -> t
  (** Creates [dir] (and missing parents) if needed.
      @raise Invalid_argument on a negative node id. *)

  val path : t -> string
  (** The checkpoint file this store reads and writes. *)

  val save : t -> string -> unit
  (** [save t blob] durably replaces the node's checkpoint with [blob]
      (atomic tmp-write + rename). *)

  val load_result : t -> (string option, string) result
  (** [Ok None] when no checkpoint exists yet; [Ok (Some blob)] on a
      well-formed file; [Error _] on any truncation, corruption, version
      or node mismatch.  Total: never raises, regardless of file
      contents (fuzzed in [test_fault.ml] like {!Codec.decode}). *)

  val wipe : t -> unit
  (** Removes the checkpoint file (and any leftover temporary), e.g. to
      simulate losing the disk too. *)
end

(** Fault events a scenario can inject, in simulated real time. *)
module Injection : sig
  type event =
    | Crash of { at : Q.t; node : int }
        (** drop the node's in-memory state; it stays down until a
            [Restart] (messages to it are declared lost meanwhile).
            Node churn is written with this pair too: a node leaves with
            a [Crash], and a late joiner is a [Crash] at 0 plus a
            [Restart] when it joins. *)
    | Restart of { at : Q.t; node : int }
        (** revive the node from its last checkpoint (its boot one if
            it never ran) *)
    | Partition of { at : Q.t; heal : Q.t; island : int list }
        (** every link between [island] and its complement drops
            messages from [at] until [heal] *)
    | Link_cut of { at : Q.t; heal : Q.t; u : int; v : int }
        (** edge churn: the undirected link [u—v] is down from [at]
            until [heal].  Messages sent while it is down — and messages
            already in flight when it goes down — are declared lost
            through the Section 3.3 oracle *)

  val at : event -> Q.t

  val node : event -> int option
  (** [None] for partitions and link cuts. *)

  val label : event -> string

  val by_time : event list -> event list
  (** Sorted by {!at}, stable. *)
end

(** Seeded random fault schedules: crash/restart cycles and partitions
    drawn from {!Rng} (SplitMix64), so a chaos run is reproducible from
    its seed alone. *)
module Chaos : sig
  val schedule :
    seed:int ->
    nodes:int ->
    ?protect:int list ->
    duration:Q.t ->
    ?cycles:int ->
    ?min_down:Q.t ->
    ?max_down:Q.t ->
    ?partitions:int ->
    unit ->
    Injection.event list
  (** [schedule ~seed ~nodes ~duration ()] draws [cycles] (default 2)
      crash/restart pairs on nodes outside [protect] (default [[0]], the
      source), each crashing uniformly inside the middle of the run and
      staying down between [min_down] and [max_down] (defaults 2% and
      10% of [duration]), plus [partitions] (default 0) random
      island-vs-rest partitions.  Cycles that would overlap an earlier
      down window of the same node are dropped rather than stacked.
      Result is sorted by time.
      @raise Invalid_argument when every node is protected, on
      [nodes < 2], or on a non-positive [duration]. *)

  val link_churn :
    seed:int ->
    links:(int * int) list ->
    duration:Q.t ->
    ?cuts:int ->
    ?min_down:Q.t ->
    ?max_down:Q.t ->
    ?protect:(int * int) list ->
    unit ->
    Injection.event list
  (** [link_churn ~seed ~links ~duration ()] draws [cuts] (default 4)
      {!Injection.Link_cut} events on links outside [protect]
      (orientation-insensitive), each cutting uniformly inside the
      middle of the run and staying down between [min_down] and
      [max_down] (defaults 2% and 10% of [duration]).  Cuts that would
      overlap an earlier down window of the same link are dropped.
      Result is sorted by time — continuous edge churn for the dynamic-
      network scenarios.
      @raise Invalid_argument when every link is protected or on a
      non-positive [duration]. *)
end
