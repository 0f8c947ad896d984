(* Flight recorder for crashes: a fixed-size ring of the most recent trace
   events, dumped atomically to disk as a small self-contained binary
   artifact.  The JSONL trace is the full record of a run; the flight
   recorder is its bounded complement — always on, O(capacity) memory,
   and still present after a kill -9 even when JSONL tracing is off,
   because dumps are cadenced during the run (tmp + rename, so a crash
   mid-dump leaves the previous complete dump, never a torn file).

   The format: magic "CSFR", a version byte, a varint event count, the
   events (the tag byte of the event's Trace table row, then its fields
   in table order: zigzag varints for ints, IEEE-754 bits for floats,
   length-prefixed strings, one byte for bools), and the Wire FNV-1a/32
   trailer over everything before it.  [load] is total: any truncation,
   bit flip, or unknown tag is an [Error], never an exception. *)

type t = {
  mutable ring : Trace.event array; (* allocated on the first record *)
  capacity : int;
  mutable len : int; (* events currently held, <= capacity *)
  mutable next : int; (* ring index of the next write *)
  mutable recorded : int; (* total events ever recorded *)
}

let create ?(capacity = 256) () =
  { ring = [||]; capacity = max 1 capacity; len = 0; next = 0; recorded = 0 }

let capacity t = t.capacity
let recorded t = t.recorded

let record t ev =
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity ev;
  t.ring.(t.next) <- ev;
  t.next <- (t.next + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1;
  t.recorded <- t.recorded + 1

let events t =
  let start = (t.next - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i -> t.ring.((start + i) mod t.capacity))

let sink t = Trace.callback (record t)

(* ------------------------------------------------------------ codec *)

let magic = "CSFR"
let version = 1

(* every int in the format, counts and lengths included, is a zigzag
   varint *)
let add_int buf n = Wire.add_varint buf (Wire.zigzag n)
let read_int r = Wire.unzigzag (Wire.read_varint r)

let writer buf =
  let field (type a) _ (ty : a Trace.ty) (x : a) =
    match ty with
    | Trace.Int -> add_int buf x
    | Trace.Float _ ->
      let bits = Int64.bits_of_float x in
      for i = 0 to 7 do
        Buffer.add_char buf
          (Char.chr
             (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
      done
    | Trace.Str ->
      add_int buf (String.length x);
      Buffer.add_string buf x
    | Trace.Bool -> Buffer.add_char buf (if x then '\001' else '\000')
  in
  { Trace.field }

let encode evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  add_int buf (List.length evs);
  let visitor = writer buf in
  List.iter
    (fun ev ->
      Buffer.add_char buf (Char.chr (Trace.tag ev));
      Trace.iter_fields visitor ev)
    evs;
  Wire.add_trailer buf;
  Buffer.contents buf

let source r =
  let read (type a) _ (ty : a Trace.ty) : a =
    match ty with
    | Trace.Int -> read_int r
    | Trace.Float _ ->
      let bits = ref 0L in
      for i = 0 to 7 do
        let b = Int64.of_int (Wire.read_byte r) in
        bits := Int64.logor !bits (Int64.shift_left b (8 * i))
      done;
      Int64.float_of_bits !bits
    | Trace.Str -> Wire.read_bytes r (read_int r)
    | Trace.Bool -> (
      match Wire.read_byte r with
      | 0 -> false
      | 1 -> true
      | _ -> Wire.fail r "bad bool")
  in
  { Trace.read }

let decode s =
  let fail m = failwith ("flight: " ^ m) in
  try
    let total = String.length s in
    if total < String.length magic + 1 + 4 then fail "truncated header";
    if String.sub s 0 (String.length magic) <> magic then fail "bad magic";
    let b = Bytes.unsafe_of_string s in
    if not (Wire.trailer_ok b ~pos:0 ~len:total) then fail "checksum mismatch";
    let header = String.length magic in
    let r = Wire.reader ~what:"flight" b ~pos:header ~len:(total - header - 4) in
    let ver = Wire.read_byte r in
    if ver <> version then fail (Printf.sprintf "unknown version %d" ver);
    let count = read_int r in
    if count < 0 then fail "negative count";
    let src = source r in
    let evs =
      List.init count (fun _ ->
          let tag = Wire.read_byte r in
          match Trace.of_tag tag src with
          | Some ev -> ev
          | None -> fail (Printf.sprintf "unknown event tag %d" tag))
    in
    if not (Wire.at_end r) then fail "trailing bytes";
    Ok evs
  with Failure m -> Error m

(* ------------------------------------------------------------- disk *)

let dump t path =
  let data = encode (events t) in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc data;
      flush oc);
  Sys.rename tmp path

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error m -> Error ("flight: " ^ m)
