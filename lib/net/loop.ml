module Make (N : Net_intf.NET) = struct
  type t = {
    net : N.t;
    session : Session.t;
    prof : Prof.t;
    (* the loop's single receive buffer: every datagram lands here and
       is decoded in place; [Session.handle] must consume any payload
       slice before [poll] returns (it does — the decoded values never
       alias the buffer), because the next receive overwrites it *)
    rbuf : Bytes.t;
    mutable routes : (Event.proc * N.addr) list;
  }

  let create ?(prof = Prof.null) ~net ~session () =
    { net; session; prof; rbuf = Bytes.create Frame.max_frame; routes = [] }

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
    match N.recv t.net ~buf:t.rbuf ~timeout with
    | None -> ()
    | Some (addr, len) -> (
      let now = N.now t.net in
      match Frame.decode_sub t.rbuf ~pos:0 ~len with
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
