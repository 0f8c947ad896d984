(* LEB128 varints; bigints as sign byte plus base-256 little-endian
   magnitude.  Readers parse in place over a caller-owned byte slice —
   the receive path hands the socket buffer straight to [decode] with no
   intermediate string per frame or per event; magnitudes go through
   Bigint's byte-slice primitives (no per-byte bigint arithmetic) and
   small timestamps through [Q.make_ints] (no bigint gcd). *)

(* --- slices ----------------------------------------------------------- *)

type slice = { bytes : Bytes.t; pos : int; len : int }

(* zero-copy: strings are immutable and readers never write, so viewing
   one as bytes is safe *)
let slice_of_string s =
  { bytes = Bytes.unsafe_of_string s; pos = 0; len = String.length s }

let string_of_slice { bytes; pos; len } = Bytes.sub_string bytes pos len

(* --- encoding --------------------------------------------------------- *)

let add_varint = Wire.add_varint

let add_bigint buf b =
  Buffer.add_char buf (Char.chr (Bigint.sign b + 1));
  add_varint buf (Bigint.num_bytes b);
  Bigint.add_bytes_le buf b

let add_q buf q =
  add_bigint buf (Q.num q);
  add_bigint buf (Q.den q)

let add_event buf (e : Event.t) =
  add_varint buf e.id.proc;
  add_varint buf e.id.seq;
  add_q buf e.lt;
  match e.kind with
  | Event.Init -> add_varint buf 0
  | Event.Internal -> add_varint buf 1
  | Event.Send { msg; dst } ->
    add_varint buf 2;
    add_varint buf msg;
    add_varint buf dst
  | Event.Recv { msg; src; send } ->
    add_varint buf 3;
    add_varint buf msg;
    add_varint buf src;
    add_varint buf send.proc;
    add_varint buf send.seq

let send_index (p : Payload.t) =
  let rec find i = function
    | [] -> failwith "Codec.encode: send event not in payload"
    | (e : Event.t) :: rest ->
      if Event.id_equal e.id p.send_event.id then i else find (i + 1) rest
  in
  find 0 p.events

let encode (p : Payload.t) =
  let buf = Buffer.create 256 in
  add_varint buf (List.length p.events);
  List.iter (add_event buf) p.events;
  add_varint buf (send_index p);
  Buffer.contents buf

(* --- size accounting (no allocation) ---------------------------------- *)

let varint_size = Wire.varint_size

let bigint_size b =
  let len = Bigint.num_bytes b in
  1 + varint_size len + len

let q_size q = bigint_size (Q.num q) + bigint_size (Q.den q)

let event_size (e : Event.t) =
  varint_size e.id.proc + varint_size e.id.seq + q_size e.lt
  + match e.kind with
    | Event.Init | Event.Internal -> 1
    | Event.Send { msg; dst } -> 1 + varint_size msg + varint_size dst
    | Event.Recv { msg; src; send } ->
      1 + varint_size msg + varint_size src + varint_size send.proc
      + varint_size send.seq

(* arithmetic mirror of [encode]; [size p = String.length (encode p)] is
   property-tested in test_hist.ml *)
let size (p : Payload.t) =
  let body =
    List.fold_left (fun acc e -> acc + event_size e) 0 p.events
  in
  varint_size (List.length p.events) + body + varint_size (send_index p)

(* --- decoding --------------------------------------------------------- *)

type reader = Wire.reader

let reader_of_slice { bytes; pos; len } =
  Wire.reader ~what:"Codec.decode" bytes ~pos ~len

let reader_of_string s = reader_of_slice (slice_of_string s)
let at_end = Wire.at_end
let remaining = Wire.remaining
let read_byte = Wire.read_byte
let read_varint = Wire.read_varint

(* A signed magnitude straight off the wire.  Up to 7 bytes fits a
   native int (< 2^56): that covers every realistic timestamp, so the
   hot path builds no bigint at all and [read_q] can normalize with
   native gcd. *)
type signed_mag = Small of int | Big of Bigint.t

let read_signed (r : reader) =
  let sign = read_byte r - 1 in
  if sign < -1 || sign > 1 then failwith "Codec.decode: bad sign";
  let len = read_varint r in
  (* reject length bombs before allocating *)
  if len > remaining r then failwith "Codec.decode: truncated";
  if len <= 7 then begin
    let buf = r.buf and pos = r.pos in
    let rec acc i v =
      if i >= len then v
      else acc (i + 1) (v lor (Char.code (Bytes.unsafe_get buf (pos + i)) lsl (8 * i)))
    in
    let v = acc 0 0 in
    r.pos <- pos + len;
    if (v = 0 && sign <> 0) || (v <> 0 && sign = 0) then
      failwith "Codec.decode: sign mismatch";
    Small (if sign < 0 then -v else v)
  end
  else begin
    let m = Bigint.of_bytes_le r.buf ~pos:r.pos ~len in
    r.pos <- r.pos + len;
    let v = if sign < 0 then Bigint.neg m else m in
    if Bigint.sign v <> sign && not (Bigint.is_zero v && sign = 0) then
      failwith "Codec.decode: sign mismatch";
    Big v
  end

let read_bigint r =
  match read_signed r with Small v -> Bigint.of_int v | Big b -> b

let read_q r =
  let num = read_signed r in
  let den = read_signed r in
  match (num, den) with
  | Small n, Small d ->
    if d <= 0 then failwith "Codec.decode: bad denominator";
    Q.make_ints n d
  | _ ->
    let to_big = function Small v -> Bigint.of_int v | Big b -> b in
    let den = to_big den in
    if Bigint.sign den <= 0 then failwith "Codec.decode: bad denominator";
    Q.make (to_big num) den

let read_event r =
  let proc = read_varint r in
  let seq = read_varint r in
  let lt = read_q r in
  let kind =
    match read_varint r with
    | 0 -> Event.Init
    | 1 -> Event.Internal
    | 2 ->
      let msg = read_varint r in
      let dst = read_varint r in
      Event.Send { msg; dst }
    | 3 ->
      let msg = read_varint r in
      let src = read_varint r in
      let sproc = read_varint r in
      let sseq = read_varint r in
      Event.Recv { msg; src; send = { proc = sproc; seq = sseq } }
    | _ -> failwith "Codec.decode: bad kind tag"
  in
  { Event.id = { proc; seq }; lt; kind }

let read_bytes = Wire.read_bytes

let read_slice (r : reader) len =
  if len < 0 || len > remaining r then Wire.fail r "truncated";
  let s = { bytes = r.buf; pos = r.pos; len } in
  r.pos <- r.pos + len;
  s

let reader_of_sub (r : reader) len =
  let sub = read_slice r len in
  Wire.reader ~what:r.what sub.bytes ~pos:sub.pos ~len

let decode_slice_exn sl =
  try
    let r = reader_of_slice sl in
    let count = read_varint r in
    if count <= 0 then failwith "Codec.decode: empty payload";
    (* every encoded event occupies at least one byte, so a count beyond
       the remaining bytes is a length bomb: fail before looping *)
    if count > remaining r then failwith "Codec.decode: truncated";
    let events = ref [] in
    for _ = 1 to count do
      events := read_event r :: !events
    done;
    let events = List.rev !events in
    let index = read_varint r in
    if not (at_end r) then failwith "Codec.decode: trailing bytes";
    if index < 0 || index >= count then failwith "Codec.decode: bad send index";
    let send_event = List.nth events index in
    if not (Event.is_send send_event) then
      failwith "Codec.decode: send index does not reference a send";
    { Payload.send_event; events }
  with
  | Failure _ as e -> raise e
  (* belt and braces at the socket boundary: whatever a primitive raises
     on adversarial bytes, the caller sees [Failure] and nothing else *)
  | Invalid_argument m -> failwith ("Codec.decode: " ^ m)
  | Division_by_zero -> failwith "Codec.decode: division by zero"

let decode s = decode_slice_exn (slice_of_string s)

let decode_result s =
  match decode s with
  | p -> Ok p
  | exception Failure m -> Error m

let decode_slice sl =
  match decode_slice_exn sl with
  | p -> Ok p
  | exception Failure m -> Error m
