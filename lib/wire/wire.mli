(** Binary primitives shared by every on-disk and on-wire format: the
    payload codec ({!Codec}), socket frames ({!Frame}), checkpoints
    ({!Fault.Store}) and crash flight dumps ({!Flight}).

    LEB128 varints, the zigzag mapping for signed ints, and the FNV-1a/32
    checksum stored as a 4-byte little-endian trailer over every byte
    before it.  The module depends on nothing but the standard library,
    so the observability layer can share it without depending on the
    history layer. *)

(** {1 Readers} *)

type reader = {
  buf : Bytes.t;
  limit : int;
  mutable pos : int;
  what : string;  (** prefix of every failure message *)
}
(** A cursor over a borrowed byte window [\[pos, limit)].  Every read
    failure raises [Failure (what ^ ": " ^ reason)] — never anything
    else — so each format keeps its own error vocabulary. *)

val reader : what:string -> Bytes.t -> pos:int -> len:int -> reader
(** @raise Invalid_argument when the window is out of bounds. *)

val fail : reader -> string -> 'a
(** [fail r reason] raises the reader's [Failure]. *)

val remaining : reader -> int
val at_end : reader -> bool

val read_byte : reader -> int
(** One raw byte (0..255). *)

val read_bytes : reader -> int -> string
(** [read_bytes r len] copies the next [len] bytes out. *)

(** {1 Varints} *)

val add_varint : Buffer.t -> int -> unit
(** Unsigned LEB128.  @raise Invalid_argument on a negative int. *)

val read_varint : reader -> int
(** Inverse of {!add_varint}; an overlong or sign-reaching encoding is a
    ["varint overflow"] failure. *)

val varint_size : int -> int
(** Encoded byte count of {!add_varint}, computed without encoding. *)

val zigzag : int -> int
(** Signed to non-negative ([0, -1, 1, -2, ...] to [0, 1, 2, 3, ...]),
    so small negatives stay one byte as varints.  A bijection from
    [[-2^61, 2^61 - 1]] onto the non-negative ints.
    @raise Invalid_argument outside that range, where no injective
    image exists. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

(** {1 Checksum trailer} *)

val add_trailer : Buffer.t -> unit
(** Append the FNV-1a/32 of the buffer's contents, little-endian. *)

val trailer_ok : Bytes.t -> pos:int -> len:int -> bool
(** Whether the last 4 bytes of the window are the {!add_trailer} of the
    bytes before them.  False, never an exception, on a window shorter
    than 4 bytes or out of bounds. *)
