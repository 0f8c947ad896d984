(* functor-independent so reports can carry hub stats regardless of the
   underlying NET *)
type stats = {
  clients : int;
  established : int;
  frames : int;
  batched : int;
  coalesced : int;
}

let burst = 256 (* datagrams handled per readiness wakeup, the first included *)

module Make (N : Net_intf.NET) = struct
  type cohort = {
    idx : int;
    members : Event.proc list;
    session : Session.t;
    (* cumulative, per cohort; hub totals are the sums *)
    mutable frames : int;
    mutable batched : int;
    mutable coalesced : int;
    (* the deadline of this cohort's live entry in [timers]; [None] when
       it has none (no timer pending, or the entry was just popped) *)
    mutable sched : Q.t option;
    mutable is_dirty : bool;  (* on [t.dirty] *)
    (* [Session.all_peers_done], as of this cohort's last flush *)
    mutable finished : bool;
  }

  type t = {
    net : N.t;
    sink : Trace.sink;
    prof : Prof.t;
    n : int;  (* spec size: clients are 1..n-1 *)
    cohort_size : int;
    cohorts : cohort array;
    (* client id -> last source address; learned from incoming frames
       (clients bind ephemeral ports), consulted at flush *)
    routes : (Event.proc, N.addr) Hashtbl.t;
    (* the one receive buffer for the one socket: each datagram is
       decoded in place and fully handled before the next receive
       overwrites it *)
    rbuf : Bytes.t;
    (* every cohort's next timer, keyed by cohort index.  Lazily deleted:
       an entry is live iff it still equals its cohort's [sched], so a
       moved timer pushes a new entry and the old one is dropped when it
       surfaces *)
    timers : int Heap.t;
    (* cohorts whose session moved since the last flush (a handled frame,
       a fired timer, a queued frame): the only ones a flush drains and
       re-reads *)
    mutable dirty : cohort list;
    mutable unfinished : int;  (* cohorts not [finished] *)
  }

  let mark_dirty t c =
    if not c.is_dirty then begin
      c.is_dirty <- true;
      t.dirty <- c :: t.dirty
    end

  (* Re-read a cohort whose session moved: reschedule its timer if it
     changed, and update the finished count. *)
  let refresh t c =
    let d = Session.next_deadline c.session in
    (match (d, c.sched) with
    | Some a, Some b when Q.equal a b -> ()
    | None, None -> ()
    | _ ->
      c.sched <- d;
      Option.iter (fun at -> Heap.push t.timers ~at c.idx) d);
    let fin = Session.all_peers_done c.session in
    if fin <> c.finished then begin
      c.finished <- fin;
      t.unfinished <- (t.unfinished + if fin then -1 else 1)
    end

  let cohort_count ~n ~cohort_size = (n - 1 + cohort_size - 1) / cohort_size

  let members_of ~n ~cohort_size idx =
    let lo = 1 + (idx * cohort_size) in
    let hi = min (n - 1) (lo + cohort_size - 1) in
    List.init (hi - lo + 1) (fun k -> lo + k)

  let create ?(sink = Trace.null) ?(prof = Prof.null) ~net ~spec ~cohort_size
      ~mk_session () =
    if cohort_size < 1 then
      invalid_arg "Hub.create: cohort size must be >= 1";
    let n = System_spec.n spec in
    if n < 2 then invalid_arg "Hub.create: need at least one client";
    let ncoh = cohort_count ~n ~cohort_size in
    let rec build idx acc =
      if idx < 0 then Ok acc
      else
        let members = members_of ~n ~cohort_size idx in
        match mk_session ~idx ~members with
        | Error _ as e -> e
        | Ok session ->
          build (idx - 1)
            ({ idx; members; session; frames = 0; batched = 0;
               coalesced = 0; sched = None; is_dirty = false;
               finished = false }
            :: acc)
    in
    match build (ncoh - 1) [] with
    | Error m -> Error m
    | Ok cohorts ->
      let t =
        {
          net;
          sink;
          prof;
          n;
          cohort_size;
          cohorts = Array.of_list cohorts;
          routes = Hashtbl.create 64;
          rbuf = Bytes.create Frame.max_frame;
          timers = Heap.create ();
          dirty = [];
          unfinished = ncoh;
        }
      in
      Array.iter
        (fun c ->
          Session.set_on_output c.session (fun () -> mark_dirty t c);
          refresh t c)
        t.cohorts;
      Ok t

  let net t = t.net
  let cohorts t = Array.length t.cohorts
  let clients t = t.n - 1
  let session t idx = t.cohorts.(idx).session
  let members t idx = t.cohorts.(idx).members

  let cohort_of t g =
    if g < 1 || g >= t.n then None
    else Some t.cohorts.((g - 1) / t.cohort_size)

  let ft now = Q.to_float now

  let by_idx a b = Int.compare a.idx b.idx

  (* Drain every dirty cohort's outgoing queue and re-read its timers,
     in cohort order, so the send order does not depend on the order
     in which cohorts moved: a drive tick's worth of acks and
     heartbeats to the same client leaves in a single flush rather than
     one flush per handled frame.  [coalesced] counts the frames beyond
     the first that shared their flush with an earlier frame to the
     same destination. *)
  let flush t =
    match t.dirty with
    | [] -> ()
    | dirty ->
      t.dirty <- [];
      List.iter
        (fun c ->
          c.is_dirty <- false;
          (match Session.drain c.session with
          | [] -> ()
          | frames ->
            let seen = Hashtbl.create 8 in
            List.iter
              (fun (dst, bytes) ->
                (match Hashtbl.find_opt t.routes dst with
                | Some addr -> N.send t.net addr bytes
                | None ->
                  (* the session only addresses reachable members, and
                     reachability is only ever granted on receive, which
                     records the route first — but dropping matches the
                     datagram contract *)
                  ());
                if Hashtbl.mem seen dst then
                  c.coalesced <- c.coalesced + 1
                else Hashtbl.add seen dst ())
              frames);
          refresh t c)
        (List.sort by_idx dirty)

  let handle_datagram t ~batched (addr, len) =
    let now = N.now t.net in
    match Frame.decode_sub t.rbuf ~pos:0 ~len with
    | Error e ->
      Trace.emit t.sink
        (Trace.Net_drop { t = ft now; reason = "frame: " ^ e })
    | Ok frame -> (
      let g = frame.Frame.sender in
      match cohort_of t g with
      | None ->
        Trace.emit t.sink
          (Trace.Net_drop
             { t = ft now; reason = Printf.sprintf "frame from non-client %d" g })
      | Some c ->
        c.frames <- c.frames + 1;
        if batched then c.batched <- c.batched + 1;
        (match Hashtbl.find_opt t.routes g with
        | Some a when N.equal_addr a addr -> ()
        | _ -> Hashtbl.replace t.routes g addr);
        Session.peer_reachable c.session ~peer:g ~now;
        Session.handle c.session ~now ~bytes:len frame;
        mark_dirty t c)

  let live t at idx =
    match t.cohorts.(idx).sched with Some d -> Q.equal d at | None -> false

  let next_deadline t =
    Option.map fst (Heap.peek_live t.timers ~live:(live t))

  (* Tick exactly the cohorts whose timer came up, in cohort order: a
     session with nothing due ignores a tick, so skipping the others
     skips nothing.  Popping a live entry clears [sched], which makes
     any duplicate entry stale; the flush that follows pushes the
     cohort's next timer. *)
  let tick_due t ~now =
    let rec pop_due acc =
      match Heap.peek_live t.timers ~live:(live t) with
      | Some (at, idx) when Q.(at <= now) ->
        ignore (Heap.pop t.timers);
        let c = t.cohorts.(idx) in
        c.sched <- None;
        pop_due (c :: acc)
      | _ -> acc
    in
    List.iter
      (fun c ->
        Session.tick c.session ~now;
        mark_dirty t c)
      (List.sort by_idx (pop_due []))

  let poll t ~max_wait = Prof.span t.prof "hub_poll" @@ fun () ->
    let now = N.now t.net in
    tick_due t ~now;
    flush t;
    let timeout =
      match next_deadline t with
      | None -> max_wait
      | Some d -> Q.max Q.zero (Q.min max_wait (Q.sub d now))
    in
    (match N.recv t.net ~buf:t.rbuf ~timeout with
    | None -> ()
    | Some first ->
      handle_datagram t ~batched:false first;
      (* one readiness wakeup, whole kernel burst: keep receiving with
         a zero timeout until the queue is dry or the cap is hit *)
      let rec go k =
        if k < burst then
          match N.recv t.net ~buf:t.rbuf ~timeout:Q.zero with
          | None -> ()
          | Some d ->
            handle_datagram t ~batched:true d;
            go (k + 1)
      in
      go 1);
    flush t

  let established_in c =
    List.length (List.filter (Session.established c.session) c.members)

  let stats t =
    Array.fold_left
      (fun acc c ->
        {
          clients = acc.clients + List.length c.members;
          established = acc.established + established_in c;
          frames = acc.frames + c.frames;
          batched = acc.batched + c.batched;
          coalesced = acc.coalesced + c.coalesced;
        })
      { clients = 0; established = 0; frames = 0; batched = 0; coalesced = 0 }
      t.cohorts

  let emit_stats t ~now =
    Array.iter
      (fun c ->
        Trace.emit t.sink
          (Trace.Hub_cohort
             {
               t = ft now;
               cohort = c.idx;
               clients = List.length c.members;
               established = established_in c;
               frames = c.frames;
               batched = c.batched;
               coalesced = c.coalesced;
             }))
      t.cohorts

  let stop t ~now =
    Array.iter
      (fun c ->
        Session.stop c.session ~now;
        mark_dirty t c)
      t.cohorts;
    flush t

  let all_clients_done t = t.unfinished = 0
end
