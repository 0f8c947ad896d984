(** Crash flight recorder: a fixed-size ring of the most recent trace
    events with an atomic binary dump.

    The JSONL trace is the complete record of a run, but it is opt-in
    and unbounded.  The flight recorder is its always-affordable
    complement: O(capacity) memory, O(1) per event, and a bounded
    on-disk artifact (magic ["CSFR"], version, varint-counted events,
    FNV-1a/32 trailer) written with tmp + rename so a [kill -9] during
    a dump leaves the previous complete dump rather than a torn file.
    Dump it on a cadence while the process runs and the last complete
    dump survives any crash — even with JSONL tracing off.  Each event
    is encoded by walking its {!Trace} table row (tag, then fields), on
    the {!Wire} varint and trailer primitives; format details in
    DESIGN.md §15. *)

type t

val create : ?capacity:int -> unit -> t
(** A recorder holding the last [capacity] events (default 256,
    clamped to at least 1). *)

val capacity : t -> int

val record : t -> Trace.event -> unit
(** O(1); once full, each record evicts the oldest event. *)

val recorded : t -> int
(** Total events ever recorded (not just the ones still held). *)

val events : t -> Trace.event list
(** The retained suffix, oldest first — the last
    [min recorded capacity] events. *)

val sink : t -> Trace.sink
(** Records every emitted event (tee it with the run's other sinks). *)

val dump : t -> string -> unit
(** Atomically write the current {!events} to [path]: encode to
    [path ^ ".tmp"], then rename.  Raises [Sys_error] on I/O failure. *)

val load : string -> (Trace.event list, string) result
(** Total inverse of {!dump}: re-reads a dump file.  Any truncation,
    corruption, checksum mismatch, unknown version, or trailing bytes
    is an [Error], never an exception ([Sys_error] on open/read is
    also mapped to [Error]). *)

(**/**)

val encode : Trace.event list -> string
val decode : string -> (Trace.event list, string) result
(** Exposed for tests: the pure codec under {!dump}/{!load}. *)
