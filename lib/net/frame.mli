(** Wire frames for the socket runtime.

    One frame per UDP datagram.  Layout (integers are {!Codec} LEB128
    varints, the same primitives the payload codec uses):

    {v
    +---------+------+--------+----------+------...---+-------------+
    | version | kind | sender | body_len | body bytes | checksum(4) |
    +---------+------+--------+----------+------...---+-------------+
    v}

    - [version]: one byte, currently {!version} (2: payload timestamps
      are zigzag varints of ticks); frames from other versions are
      rejected as "unsupported version N".
    - [kind]: one byte — 0 hello, 1 hello_ack, 2 data, 3 ack, 4 bye.
    - [sender]: the sending processor's id.
    - [body_len]: byte length of the body that follows (validated
      against the actual remainder, so truncation is detected even when
      the checksum was recomputed by an attacker in the middle).
    - [checksum]: FNV-1a 32-bit over every preceding byte,
      little-endian.  UDP's own checksum is optional on some paths and
      only 16 bits; this one also catches our own framing bugs.

    Bodies:
    - [Hello]/[Hello_ack]: node count and a configuration digest, so two
      endpoints running different system specs refuse to pair instead of
      silently producing unsound intervals.
    - [Data]: CSA message id, destination id, the sender's recent loss
      verdicts (msg ids it declared lost — Section 3.3 verdicts must
      reach every processor, and over a real network the only channel is
      in-band gossip), and the Codec-encoded {!Payload.t}.
    - [Ack]: message id being acknowledged (lossy mode only).
    - [Bye]: orderly shutdown notice, empty body. *)

val version : int

val max_frame : int
(** Largest frame we accept (the classic UDP payload ceiling). *)

type body =
  | Hello of { nodes : int; digest : int }
  | Hello_ack of { nodes : int; digest : int }
  | Data of { msg : int; dst : int; lost : int list; payload : Codec.slice }
  | Ack of { msg : int }
  | Bye
(** A [Data] payload is a {e borrowed} {!Codec.slice}: on the receive
    path it is a window into the loop's reusable buffer, valid only
    until the next receive (DESIGN.md §8, buffer ownership).  Consumers
    must decode it before returning; [Codec.string_of_slice] is the
    explicit copy for anyone who must retain it. *)

type t = { sender : int; body : body }

val kind_label : body -> string
(** ["hello"], ["hello_ack"], ["data"], ["ack"], ["bye"] — the [kind]
    field of [net_tx]/[net_rx] trace events. *)

val encode : t -> string

val decode : string -> (t, string) result
(** Total: adversarial bytes (truncations, bit flips, length bombs, junk)
    yield [Error], never an exception.  Fuzzed in [test_net.ml]. *)

val decode_sub : Bytes.t -> pos:int -> len:int -> (t, string) result
(** In-place variant over a window of a caller-owned buffer (the receive
    path): checksum verified and header parsed with no head copy, and a
    [Data] payload exposed as a sub-slice of [b].  The frame borrows
    [b] — valid only until the buffer is reused.  Same total contract as
    {!decode}. *)
