(* --- readers ----------------------------------------------------------- *)

type reader = { buf : Bytes.t; limit : int; mutable pos : int; what : string }

let reader ~what buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Wire.reader: slice out of bounds";
  { buf; limit = pos + len; pos; what }

let fail r msg = failwith (r.what ^ ": " ^ msg)
let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit

let read_byte r =
  if r.pos >= r.limit then fail r "truncated";
  (* in bounds: [pos < limit <= Bytes.length buf] by construction *)
  let c = Char.code (Bytes.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  c

let read_bytes r len =
  if len < 0 || len > remaining r then fail r "truncated";
  let s = Bytes.sub_string r.buf r.pos len in
  r.pos <- r.pos + len;
  s

(* --- LEB128 varints ----------------------------------------------------- *)

let add_varint buf n =
  if n < 0 then invalid_arg "Wire.add_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let read_varint r =
  let rec go shift acc =
    if shift > 62 then fail r "varint overflow";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let v = go 0 0 in
  (* bits 56.. can reach the sign bit of a 63-bit int; encoders only ever
     emit non-negative values, so a negative result is adversarial *)
  if v < 0 then fail r "varint overflow";
  v

let varint_size n =
  if n < 0 then invalid_arg "Wire.varint_size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

(* the sign folds into bit 0 so small negatives stay short; the mask
   keeps the result a non-negative varint for every input *)
let zigzag n = (n lsl 1) lxor (n asr 62) land max_int
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* --- FNV-1a/32 checksum trailer ----------------------------------------- *)

(* callers guarantee the window is in bounds *)
let fnv1a32 b ~pos ~len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xffffffff
  done;
  !h

let add_trailer buf =
  let h = fnv1a32 (Buffer.to_bytes buf) ~pos:0 ~len:(Buffer.length buf) in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((h lsr (8 * i)) land 0xff))
  done

let trailer_ok b ~pos ~len =
  len >= 4
  && pos >= 0
  && pos + len <= Bytes.length b
  &&
  let byte i = Char.code (Bytes.unsafe_get b (pos + len - 4 + i)) in
  let stored = byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24) in
  fnv1a32 b ~pos ~len:(len - 4) = stored
