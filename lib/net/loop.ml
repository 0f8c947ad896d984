module Make (N : Net_intf.NET) = struct
  (* one receive buffer for every loop of this instance: each datagram
     lands here and is decoded in place.  [Session.handle] consumes any
     payload slice before [poll] returns (the decoded values never alias
     the buffer), loops run on one thread and nothing in [poll] polls
     another loop, so the buffer is dead between polls and K loops need
     not hold K copies of [Frame.max_frame].  Lazy: a program that
     links an instance but never polls it (the simulator) pays nothing *)
  let rbuf = lazy (Bytes.create Frame.max_frame)

  type t = {
    net : N.t;
    session : Session.t;
    prof : Prof.t;
    mutable routes : (Event.proc * N.addr) list;
  }

  let create ?(prof = Prof.null) ~net ~session () =
    { net; session; prof; routes = [] }

  let net t = t.net
  let session t = t.session

  let learn t ~peer addr =
    if Session.is_peer t.session peer then begin
      (match List.assoc_opt peer t.routes with
      | Some a when N.equal_addr a addr -> ()
      | _ ->
        t.routes <- (peer, addr) :: List.remove_assoc peer t.routes);
      Session.peer_reachable t.session ~peer ~now:(N.now t.net)
    end

  let flush t =
    List.iter
      (fun (dst, bytes) ->
        (* the session only addresses reachable peers, and reachability
           is only ever set by [learn]; a missing route is a bug, but
           dropping matches the datagram contract *)
        match List.assoc_opt dst t.routes with
        | Some addr -> N.send t.net addr bytes
        | None -> ())
      (Session.drain t.session)

  let poll t ~max_wait = Prof.span t.prof "net_poll" @@ fun () ->
    let now = N.now t.net in
    Session.tick t.session ~now;
    flush t;
    let timeout =
      match Session.next_deadline t.session with
      | None -> max_wait
      | Some d -> Q.max Q.zero (Q.min max_wait (Q.sub d now))
    in
    let rbuf = Lazy.force rbuf in
    match N.recv t.net ~buf:rbuf ~timeout with
    | None -> ()
    | Some (addr, len) -> (
      let now = N.now t.net in
      match Frame.decode_sub rbuf ~pos:0 ~len with
      | Error e -> Session.note_drop t.session ~now ("frame: " ^ e)
      | Ok frame ->
        if Session.is_peer t.session frame.Frame.sender then begin
          learn t ~peer:frame.Frame.sender addr;
          Session.handle t.session ~now ~bytes:len frame;
          flush t
        end
        else
          Session.note_drop t.session ~now
            (Printf.sprintf "frame from non-neighbor %d" frame.Frame.sender))
end
