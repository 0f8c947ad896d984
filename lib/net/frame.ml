let version = 1
let max_frame = 65507

type body =
  | Hello of { nodes : int; digest : int }
  | Hello_ack of { nodes : int; digest : int }
  | Data of { msg : int; dst : int; lost : int list; payload : Codec.slice }
  | Ack of { msg : int }
  | Bye

type t = { sender : int; body : body }

let kind_label = function
  | Hello _ -> "hello"
  | Hello_ack _ -> "hello_ack"
  | Data _ -> "data"
  | Ack _ -> "ack"
  | Bye -> "bye"

let kind_tag = function
  | Hello _ -> 0
  | Hello_ack _ -> 1
  | Data _ -> 2
  | Ack _ -> 3
  | Bye -> 4

let encode { sender; body } =
  let body_buf = Buffer.create 128 in
  (match body with
  | Hello { nodes; digest } | Hello_ack { nodes; digest } ->
    Codec.add_varint body_buf nodes;
    Codec.add_varint body_buf digest
  | Data { msg; dst; lost; payload } ->
    Codec.add_varint body_buf msg;
    Codec.add_varint body_buf dst;
    Codec.add_varint body_buf (List.length lost);
    List.iter (Codec.add_varint body_buf) lost;
    Codec.add_varint body_buf payload.Codec.len;
    Buffer.add_subbytes body_buf payload.Codec.bytes payload.Codec.pos
      payload.Codec.len
  | Ack { msg } -> Codec.add_varint body_buf msg
  | Bye -> ());
  let buf = Buffer.create (Buffer.length body_buf + 16) in
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr (kind_tag body));
  Codec.add_varint buf sender;
  Codec.add_varint buf (Buffer.length body_buf);
  Buffer.add_buffer buf body_buf;
  Wire.add_trailer buf;
  let s = Buffer.contents buf in
  if String.length s > max_frame then
    invalid_arg "Frame.encode: frame exceeds max datagram size";
  s

(* In-place decode over a borrowed window of the receive buffer: the
   checksum is verified, the header parsed and a [Data] payload exposed
   as a sub-slice — no [Bytes.sub]/[String.sub] anywhere on the path.
   The returned frame (and its payload slice) borrows [b]: it is valid
   only until the caller reuses the buffer. *)
let decode_sub b ~pos ~len =
  try
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      failwith "bad frame slice";
    if len < 8 then failwith "frame too short";
    if len > max_frame then failwith "frame too large";
    if not (Wire.trailer_ok b ~pos ~len) then failwith "bad checksum";
    let r = Codec.reader_of_slice { Codec.bytes = b; pos; len = len - 4 } in
    let v = Codec.read_byte r in
    if v <> version then
      failwith (Printf.sprintf "unsupported version %d" v);
    let kind = Codec.read_byte r in
    let sender = Codec.read_varint r in
    let body_len = Codec.read_varint r in
    if body_len <> Codec.remaining r then failwith "bad body length";
    let body =
      match kind with
      | 0 | 1 ->
        let nodes = Codec.read_varint r in
        let digest = Codec.read_varint r in
        if kind = 0 then Hello { nodes; digest }
        else Hello_ack { nodes; digest }
      | 2 ->
        let msg = Codec.read_varint r in
        let dst = Codec.read_varint r in
        let n_lost = Codec.read_varint r in
        (* every lost id occupies at least one byte: length-bomb guard *)
        if n_lost > Codec.remaining r then failwith "truncated loss list";
        let lost = ref [] in
        for _ = 1 to n_lost do
          lost := Codec.read_varint r :: !lost
        done;
        let lost = List.rev !lost in
        let payload_len = Codec.read_varint r in
        let payload = Codec.read_slice r payload_len in
        Data { msg; dst; lost; payload }
      | 3 -> Ack { msg = Codec.read_varint r }
      | 4 -> Bye
      | k -> failwith (Printf.sprintf "unknown frame kind %d" k)
    in
    if not (Codec.at_end r) then failwith "trailing bytes in body";
    Ok { sender; body }
  with
  | Failure m -> Error m
  | Invalid_argument m -> Error m

let decode s =
  (* zero-copy view: readers never write, and a [Data] payload slice
     borrowing an immutable string is always safe to hold *)
  decode_sub (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
