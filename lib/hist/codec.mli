(** Binary wire format for piggybacked payloads.

    The paper measures message size in events and words; this codec makes
    the measurement concrete: varint-encoded event records whose
    timestamp, an int count of ticks, is one zigzag varint
    ({!Wire.zigzag}).  Round-tripping is property-tested.

    Format (all integers LEB128 varints):
    - event count, then each event (proc, seq, zigzag lt, kind tag +
      fields),
    - the index of the carrying send event within the list.

    Decoding is {e in place}: a {!reader} walks a caller-owned byte
    slice, parsing varints directly out of the buffer with no
    intermediate string or bytes per element.  The
    receive path (socket buffer → {!Frame} → payload → frontier merge)
    allocates only the decoded values themselves. *)

(** {1 Slices}

    A borrowed window into a caller-owned buffer.  A slice does not own
    its bytes: whoever handed it out decides how long the underlying
    buffer stays valid (see DESIGN.md §8 for the receive-path ownership
    rules — [Net.Loop] reuses its buffer on the next receive, so slices
    must be consumed before the handler returns, never retained). *)

type slice = { bytes : Bytes.t; pos : int; len : int }

val slice_of_string : string -> slice
(** Zero-copy view of a whole string (readers never write). *)

val string_of_slice : slice -> string
(** Copies the slice out — the one deliberate copy, for callers that
    must retain the data past the buffer's reuse. *)

val encode : Payload.t -> string

val decode : string -> Payload.t
(** @raise Failure on malformed input — and only [Failure]: adversarial
    bytes (truncations, bit flips, length bombs) must never surface as
    [Invalid_argument], [Out_of_memory], or a crash.  Fuzzed in
    [test_hist.ml], including differentially against a reference
    decoder. *)

val decode_result : string -> (Payload.t, string) result
(** Non-raising wrapper around {!decode}, same total contract. *)

val decode_slice : slice -> (Payload.t, string) result
(** In-place equivalent of {!decode_result}: what the net layer calls at
    the socket boundary, where malformed input is an expected event
    rather than a programming error.  Parses directly out of the slice;
    the result does not alias the buffer. *)

val size : Payload.t -> int
(** [String.length (encode p)], computed arithmetically — no encode, no
    allocation.  Property-tested against the real encode. *)

(** {1 Low-level primitives}

    Shared with the frame codec ({!Frame}), the state-snapshot
    serializers ({!Csa.snapshot}) and the checkpoint store
    ({!Fault.Store}).  The varint and reader primitives are {!Wire}'s,
    under the ["Codec.decode"] failure prefix; all readers raise
    [Failure] on malformed input. *)

type reader

val reader_of_string : string -> reader
val reader_of_slice : slice -> reader
val at_end : reader -> bool

val remaining : reader -> int
(** Bytes left to read.  Length prefixes must be validated against this
    before allocating (every encoded element occupies at least one byte,
    so a count can never legitimately exceed it). *)

val add_varint : Buffer.t -> int -> unit
(** Non-negative integers only. *)

val read_varint : reader -> int

val read_byte : reader -> int
(** One raw byte (0..255).  @raise Failure at end of input. *)

val read_bytes : reader -> int -> string
(** [read_bytes r len] consumes and {e copies} the next [len] raw bytes
    (for callers that retain the data, e.g. a checkpoint blob).
    @raise Failure when fewer than [len] bytes remain. *)

val read_slice : reader -> int -> slice
(** Like {!read_bytes} but borrowed: a window into the reader's buffer,
    no copy.  The slice is only valid as long as the buffer is. *)

val reader_of_sub : reader -> int -> reader
(** [reader_of_sub r len] consumes the next [len] bytes of [r] and
    returns a sub-reader over exactly those bytes (no copy); its
    [at_end] checks the embedded blob was fully consumed.
    @raise Failure when fewer than [len] bytes remain. *)

val add_event : Buffer.t -> Event.t -> unit
val read_event : reader -> Event.t

