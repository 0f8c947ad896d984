type addr = Unix.sockaddr

type t = {
  fd : Unix.file_descr;
  offset : Q.t;
  rate : Q.t;
  drop : float;
  rng : Rng.t;
  mutable last_now : Q.t;
}

(* whole ticks (Clock.tick, 1 µs), truncated: floats in this range hold
   integers exactly, and the quotient stays well inside 63-bit ints *)
let q_of_wall f =
  let per_s = Clock.ticks_per_second in
  Q.of_ints (int_of_float (f *. float_of_int per_s)) per_s

(* Local times are process-relative, not Unix-epoch: wall readings are
   rebased to a per-process epoch fixed at the first reading.  Epochs
   carry no information — clock offsets between processors are
   arbitrary and estimated by the protocol, never assumed — but the
   magnitude matters for the arithmetic.  The AGDP works on native ints
   and does not care; [Q.compare] and [Clock.floor_tick] do.  Both
   answer from Q's float enclosures when those settle the question, and
   at Unix-epoch scale (~1.8e9 s) the enclosures cannot separate
   readings closer than ~1e-4 s, so every deadline comparison and every
   floor of a reading would fall back to exact multi-limb arithmetic.
   Rebased to seconds since start, microsecond differences sit far
   above the enclosure width and the float tier answers almost always
   (DESIGN §11 measures what that tier is worth).

   Crash recovery pins the epoch instead: a restored session's local
   clock must continue past its snapshot, so a runtime that checkpoints
   persists the epoch beside the checkpoint and calls [set_epoch]
   before its first reading. *)
let epoch_ref = ref None

(* Not seconds-since-start but the enclosing 2^17 s (~1.5 day) boundary:
   every process on the host lands on the same epoch without
   coordination, which is what keeps the localhost soundness
   cross-check meaningful (a peer's interval is compared against the
   reference process's clock — with private epochs they would disagree
   by the startup skew).  Rebased readings stay below ~1.3e5 s, small
   enough for the float tier with four orders of magnitude to spare. *)
let epoch_quantum = 0x20000

let epoch () =
  match !epoch_ref with
  | Some e -> e
  | None ->
    let e =
      int_of_float (Unix.gettimeofday ()) / epoch_quantum * epoch_quantum
    in
    epoch_ref := Some e;
    e

let set_epoch e =
  match !epoch_ref with
  | Some cur when cur <> e ->
    invalid_arg "Udp.set_epoch: wall epoch already fixed"
  | _ -> epoch_ref := Some e

(* the subtraction is exact: both operands are representable and the
   difference needs far fewer mantissa bits than either *)
let wall_s () = Unix.gettimeofday () -. float_of_int (epoch ())
let wall () = q_of_wall (wall_s ())

let create ?(offset = Q.zero) ?(rate = Q.one) ?(drop = 0.) ?(seed = 7)
    ~port () =
  if Q.sign rate <= 0 then invalid_arg "Udp.create: rate must be positive";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* nonblocking: [recv ~timeout:Q.zero] must poll the kernel queue
     directly (no select round trip) and report emptiness as [None] —
     that is what lets a caller drain a burst per readiness wakeup *)
  Unix.set_nonblock fd;
  { fd; offset; rate; drop; rng = Rng.create seed; last_now = Q.neg (Q.of_int max_int) }

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> 0

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* the floor tick of the true reading [offset + rate·wall], quantized
   once from the exact wall reading like every runtime's *)
let now t =
  let lt =
    Clock.floor_tick
      (Q.add t.offset (Q.mul t.rate (Q.of_float_exact (wall_s ()))))
  in
  let lt = Q.max lt t.last_now in
  t.last_now <- lt;
  lt

let send t a s =
  try
    ignore
      (Unix.sendto t.fd (Bytes.unsafe_of_string s) 0 (String.length s) [] a)
  with Unix.Unix_error _ ->
    (* ECONNREFUSED from a not-yet-bound peer, transient ENOBUFS, ...:
       a dropped datagram, which the protocol already tolerates *)
    ()

let recv t ~buf ~timeout =
  (* a non-positive timeout skips select entirely: one nonblocking
     recvfrom against the kernel queue.  A positive timeout is one
     readiness wakeup; the caller then drains the burst with
     [~timeout:Q.zero] calls until [None]. *)
  let ready =
    if Q.sign timeout <= 0 then true
    else begin
      (* [timeout] is a local-time duration; real seconds differ by
         [rate] *)
      let secs = Float.max 0. (Q.to_float (Q.div timeout t.rate)) in
      match Unix.select [ t.fd ] [] [] secs with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    end
  in
  if not ready then None
  else
    (* the kernel copies the datagram straight into the caller's buffer;
       nothing else is allocated on this path *)
    match Unix.recvfrom t.fd buf 0 (Bytes.length buf) [] with
    | len, from ->
      if t.drop > 0. && Rng.bernoulli t.rng ~p:t.drop then None
      else Some (from, len)
    | exception
        Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
      None

let equal_addr (a : addr) (b : addr) = a = b

let string_of_addr = function
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let loopback p = Unix.ADDR_INET (Unix.inet_addr_loopback, p)

let addr_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error "expected HOST:PORT"
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | None -> Error ("bad port: " ^ port)
    | Some p -> (
      match Unix.inet_addr_of_string host with
      | ip -> Ok (Unix.ADDR_INET (ip, p))
      | exception Failure _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] -> Error ("unknown host: " ^ host)
        | addrs -> Ok (Unix.ADDR_INET (addrs.(0), p))
        | exception Not_found -> Error ("unknown host: " ^ host))))
