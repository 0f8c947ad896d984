(** Events ("points") of a distributed execution.

    An event is identified by the processor it occurs at and a per-processor
    sequence number; it carries the local clock reading at its occurrence
    (an int count of ticks, {!System_spec.tick}, floored once where it
    enters the algorithm) and its kind.  Receive events reference their
    matching send event — this is how the execution graph's message
    edges are reconstructed from a view.  Real times of occurrence are
    deliberately {e absent}: a view contains only attributes available
    inside the system (Section 2 of the paper). *)

type proc = int
(** Processor identifier, a dense index [0 .. n-1]. *)

type id = { proc : proc; seq : int }
(** [seq] counts events at [proc] from 0. *)

type kind =
  | Init  (** the first event of a processor (its startup) *)
  | Internal  (** a local event with no communication *)
  | Send of { msg : int; dst : proc }
  | Recv of { msg : int; src : proc; send : id }
      (** [send] is the id of the matching send event. *)

type t = { id : id; lt : int; kind : kind }

val id_compare : id -> id -> int
val id_equal : id -> id -> bool
val id_hash : id -> int
val pp_id : Format.formatter -> id -> unit

val loc : t -> proc

val prev_id : t -> id option
(** The immediately preceding event at the same processor, if any. *)

val is_send : t -> bool
val is_recv : t -> bool

val sent_msg : t -> int option
(** The message id when the event is a send. *)

val pp : Format.formatter -> t -> unit

module Id_tbl : Hashtbl.S with type key = id
module Id_set : Set.S with type elt = id
