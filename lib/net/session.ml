type config = {
  me : Event.proc;
  spec : System_spec.t;
  lossy : bool;
  heartbeat : Q.t;
  announce_base : Q.t;
  announce_cap : Q.t;
  ack_timeout : Q.t;
  peer_timeout : Q.t;
}

let default_config ~me ~spec =
  (* The liveness timeouts scale with the declared link bound: under a
     2 s one-way bound a fixed 1 s ack deadline would declare nearly
     every slow-but-legal ack lost, flooding the Section 3.3 rollback
     machinery with spurious verdicts (sound, but all re-reporting).
     The scaling is deliberately sub-linear in the bound, though: an
     ack timeout is a retransmission timer, not a soundness deadline —
     a false verdict only costs redundant re-reporting (the verdict
     stands; a late ack or datagram is discarded) — while a timeout
     near the worst-case round trip lets every unresolved send keep
     its point live and its events in history for the whole window,
     growing the per-insert O(L^2) oracle work until a busy session
     cannot keep up with its own socket. *)
  let hi =
    List.fold_left
      (fun acc peer ->
        match System_spec.transit spec me peer with
        | Some { Transit.hi = Ext.Fin h; _ } -> Q.max acc h
        | Some _ | None -> acc)
      Q.zero
      (System_spec.neighbors spec me)
  in
  {
    me;
    spec;
    lossy = true;
    heartbeat = Q.of_ints 1 2;
    announce_base = Q.of_ints 1 4;
    announce_cap = Q.of_int 8;
    ack_timeout = Q.max Q.one (Q.div_int hi 2);
    peer_timeout = Q.max (Q.of_int 5) (Q.mul_int hi 3);
  }

(* Two endpoints pairing with different specs would exchange payloads and
   produce confidently wrong intervals; the digest makes the mismatch a
   refusal at hello time instead.  It covers the shape the wire protocol
   itself depends on — anything finer (exact drift/transit bounds) still
   matters for soundness but cannot corrupt the state machines. *)
let config_digest cfg =
  let n = System_spec.n cfg.spec in
  let src = System_spec.source cfg.spec in
  let links = System_spec.n_links cfg.spec in
  (Frame.version * 1000003)
  lxor (n * 8191)
  lxor (src * 131)
  lxor (links * 17)
  lxor (if cfg.lossy then 1 else 0)

type peer = {
  id : Event.proc;
  mutable reachable : bool;
  mutable established : bool;
  mutable was_up : bool;
  mutable said_bye : bool;
  mutable last_heard : Q.t;
  mutable next_announce : Q.t;
  mutable backoff : Q.t;
  mutable next_heartbeat : Q.t;
  mutable last_seen_msg : int;  (* highest data msg id accepted; -1 none *)
  mutable inflight : (int * Q.t) list;  (* msg id, ack deadline *)
}

type t = {
  cfg : config;
  csa : Csa.t;
  sink : Trace.sink;
  prof : Prof.t;
  peers : (Event.proc, peer) Hashtbl.t;
  peer_order : Event.proc list;
  out : (Event.proc * string) Queue.t;
  custom_alloc : (unit -> int) option;
  (* default allocator counter: [me + next_k * n].  Serialized in every
     checkpoint, and every send checkpoints first, so a restored counter
     is a floor strictly above every id that ever left this node —
     peers' dedup state stays monotone across our reboot. *)
  mutable next_k : int;
  mutable lost_ring : int list;  (* recent loss verdicts, newest first *)
  mutable stopped : bool;
  (* a receive broke off half-applied (see [handle]): the CSA is no
     longer trustworthy, so the session neither sends nor receives *)
  mutable failed : bool;
  mutable save_checkpoint : (string -> unit) option;
  mutable on_output : unit -> unit;
}

let lost_ring_cap = 64

let fresh_peer cfg ~now ~preestablished id =
  {
    id;
    reachable = preestablished;
    established = preestablished;
    was_up = preestablished;
    said_bye = false;
    last_heard = now;
    next_announce = now;
    backoff = cfg.announce_base;
    next_heartbeat = Q.add now cfg.heartbeat;
    last_seen_msg = -1;
    inflight = [];
  }

(* [?peers] restricts the session to a subset of the spec's neighbors:
   the hub shards one node id's neighbor set across cohort sessions, and
   each cohort must announce to / heartbeat / time out only its own
   members.  The subset is a view, not a different system — the config
   digest still covers the full spec, so members cannot tell a sharded
   counterpart from a whole one. *)
let member_subset cfg = function
  | None -> System_spec.neighbors cfg.spec cfg.me
  | Some subset ->
    let neighbors = System_spec.neighbors cfg.spec cfg.me in
    List.iter
      (fun id ->
        if not (List.mem id neighbors) then
          invalid_arg
            (Printf.sprintf "Session: peer %d is not a neighbor of %d" id
               cfg.me))
      subset;
    subset

let create ?(sink = Trace.null) ?(prof = Prof.null) ?alloc_msg
    ?(preestablished = false) ?peers cfg ~now =
  let members = member_subset cfg peers in
  (* [now] is the NET seam's rational reading, a whole tick; every Csa
     call takes it as the int count of ticks *)
  let csa =
    Csa.create ~lossy:cfg.lossy ~sink ~prof ~neighbors:members
      (System_spec.charge cfg.spec) ~me:cfg.me ~lt0:(Clock.floor_ticks now)
  in
  let peers = Hashtbl.create (List.length members) in
  List.iter
    (fun id ->
      Hashtbl.replace peers id (fresh_peer cfg ~now ~preestablished id))
    members;
  {
    cfg;
    csa;
    sink;
    prof;
    peers;
    peer_order = members;
    out = Queue.create ();
    custom_alloc = alloc_msg;
    next_k = 0;
    lost_ring = [];
    stopped = false;
    failed = false;
    save_checkpoint = None;
    on_output = ignore;
  }

let alloc_msg t =
  match t.custom_alloc with
  | Some f -> f ()
  | None ->
    (* [me + k*n] never collides across nodes of one system *)
    let m = t.cfg.me + (t.next_k * System_spec.n t.cfg.spec) in
    t.next_k <- t.next_k + 1;
    m

let csa t = t.csa
let is_peer t id = Hashtbl.mem t.peers id
let peer_ids t = t.peer_order
let established t id =
  match Hashtbl.find_opt t.peers id with
  | Some p -> p.established
  | None -> false

let ft now = Q.to_float now

let emit_frame t ~now ~dst body =
  let bytes = Frame.encode { sender = t.cfg.me; body } in
  Trace.emit t.sink
    (Trace.Net_tx
       {
         t = ft now;
         dst;
         kind = Frame.kind_label body;
         bytes = String.length bytes;
       });
  Queue.add (dst, bytes) t.out;
  t.on_output ()

let drain t =
  let rec go acc =
    match Queue.take_opt t.out with
    | None -> List.rev acc
    | Some x -> go (x :: acc)
  in
  go []

let note_drop t ~now reason =
  Trace.emit t.sink (Trace.Net_drop { t = ft now; reason })

(* a peer broke the wire contract: the typed event is what the
   conformance monitor and the metrics counter key on; the net_drop
   beside it keeps the drop reasons complete *)
let violation t ~now ~peer ~msg ~rule detail =
  Trace.emit t.sink
    (Trace.Protocol_violation
       {
         t = ft now;
         node = t.cfg.me;
         rule;
         detail = Printf.sprintf "peer %d msg %d: %s" peer msg detail;
       });
  note_drop t ~now ("protocol violation: " ^ detail)

let remember_lost t msg =
  if not (List.mem msg t.lost_ring) then begin
    let ring = msg :: t.lost_ring in
    t.lost_ring <-
      (if List.length ring > lost_ring_cap then
         List.filteri (fun i _ -> i < lost_ring_cap) ring
       else ring)
  end

(* A verdict can concern a message we ourselves received successfully (the
   sender's ack got lost); [Csa.on_msg_lost] is idempotent and a no-op for
   such points, so applying every verdict unconditionally is safe. *)
let apply_loss_verdict t msg =
  Csa.on_msg_lost t.csa ~msg;
  remember_lost t msg

(* --- persistence ---------------------------------------------------- *)

let session_snapshot_version = 1

(* Session layer on top of the CSA blob: format version; me; config
   digest; the msg-id allocation counter; the loss-verdict gossip ring;
   per-peer dedup floors (id, last accepted msg + 1); then the CSA
   snapshot as a length-prefixed blob.  Address/liveness state
   (reachable, established, deadlines) is deliberately absent: a
   restarted process re-learns addresses and re-handshakes. *)
let snapshot t =
  let buf = Buffer.create 256 in
  Codec.add_varint buf session_snapshot_version;
  Codec.add_varint buf t.cfg.me;
  Codec.add_varint buf (config_digest t.cfg);
  Codec.add_varint buf t.next_k;
  Codec.add_varint buf (List.length t.lost_ring);
  List.iter (Codec.add_varint buf) t.lost_ring;
  Codec.add_varint buf (List.length t.peer_order);
  List.iter
    (fun id ->
      let p = Hashtbl.find t.peers id in
      Codec.add_varint buf id;
      Codec.add_varint buf (p.last_seen_msg + 1))
    t.peer_order;
  let blob = Csa.snapshot t.csa in
  Codec.add_varint buf (String.length blob);
  Buffer.add_string buf blob;
  Buffer.contents buf

let set_checkpoint t save = t.save_checkpoint <- Some save
let set_on_output t f = t.on_output <- f

let do_checkpoint t ~now =
  match t.save_checkpoint with
  | None -> ()
  | Some save ->
    let t0 = Prof.start t.prof in
    let blob = snapshot t in
    save blob;
    Prof.stop t.prof "checkpoint_write" t0;
    Trace.emit t.sink
      (Trace.Checkpoint
         { t = ft now; node = t.cfg.me; bytes = String.length blob })

let restore ?(sink = Trace.null) ?(prof = Prof.null) ?alloc_msg ?peers cfg
    ~now blob =
  try
    let r = Codec.reader_of_string blob in
    if Codec.read_varint r <> session_snapshot_version then
      failwith "unsupported session snapshot version";
    let me = Codec.read_varint r in
    if me <> cfg.me then
      failwith (Printf.sprintf "snapshot is for node %d, not %d" me cfg.me);
    let digest = Codec.read_varint r in
    if digest <> config_digest cfg then
      (* same refusal the hello handshake would give a mismatched peer:
         an operator restarting under a different system spec must not
         silently reinterpret old state *)
      failwith "snapshot config digest does not match this configuration";
    let next_k = Codec.read_varint r in
    let n_lost = Codec.read_varint r in
    if n_lost > Codec.remaining r then failwith "truncated loss ring";
    let lost_ring = List.init n_lost (fun _ -> Codec.read_varint r) in
    let n_peers = Codec.read_varint r in
    if n_peers > Codec.remaining r then failwith "truncated peer list";
    let floors =
      List.init n_peers (fun _ ->
          let id = Codec.read_varint r in
          let floor = Codec.read_varint r - 1 in
          (id, floor))
    in
    let len = Codec.read_varint r in
    (* the CSA revives straight out of the session blob: a sub-reader
       over the embedded bytes, not a copied-out string *)
    let csa_r = Codec.reader_of_sub r len in
    if not (Codec.at_end r) then failwith "trailing bytes in snapshot";
    let members = member_subset cfg peers in
    let recorded = List.map fst floors in
    if List.sort compare recorded <> List.sort compare members then begin
      (* a hub restarted with another cohort size numbers its cohorts
         the same way but fills them with other clients: reviving this
         state for them would mix two sessions' histories *)
      let ids l = String.concat ";" (List.map string_of_int l) in
      failwith
        (Printf.sprintf "snapshot peers [%s] differ from requested peers [%s]"
           (ids recorded) (ids members))
    end;
    let csa =
      Csa.restore_reader ~sink ~prof ~neighbors:members
        (System_spec.charge cfg.spec) csa_r
    in
    let peers = Hashtbl.create (List.length members) in
    List.iter
      (fun id ->
        let p = fresh_peer cfg ~now ~preestablished:false id in
        p.last_seen_msg <- List.assoc id floors;
        Hashtbl.replace peers id p)
      members;
    let t =
      {
        cfg;
        csa;
        sink;
        prof;
        peers;
        peer_order = members;
        out = Queue.create ();
        custom_alloc = alloc_msg;
        next_k;
        lost_ring;
        stopped = false;
        failed = false;
        save_checkpoint = None;
        on_output = ignore;
      }
    in
    (* messages we sent before the crash that never got a verdict: arm a
       fresh ack deadline each, so the Section 3.3 timeout machinery
       declares them lost (and re-reports their events) if the ack never
       comes.  The inflight records themselves live in the CSA blob. *)
    List.iter
      (fun (msg, dst) ->
        match Hashtbl.find_opt peers dst with
        | Some p ->
          p.inflight <- (msg, Q.add now cfg.ack_timeout) :: p.inflight
        | None -> ())
      (Csa.inflight csa);
    Ok t
  with Failure m -> Error ("Session.restore: " ^ m)

(* -------------------------------------------------------------------- *)

let send_data t ~now ~dst =
  let p = Hashtbl.find t.peers dst in
  let msg = alloc_msg t in
  let payload = Csa.send t.csa ~dst ~msg ~lt:(Clock.floor_ticks now) in
  let t0 = Prof.start t.prof in
  let wire = Codec.encode payload in
  Prof.stop t.prof "codec_encode" t0;
  (* write-ahead: the payload carries our own events and the allocator
     counter moved — both must be durable before the frame exists *)
  if t.cfg.lossy then
    p.inflight <- (msg, Q.add now t.cfg.ack_timeout) :: p.inflight;
  do_checkpoint t ~now;
  Trace.emit t.sink
    (Trace.Send
       {
         t = ft now;
         src = t.cfg.me;
         dst;
         msg;
         events = List.length payload.Payload.events;
         bytes = String.length wire;
       });
  emit_frame t ~now ~dst
    (Frame.Data
       { msg; dst; lost = t.lost_ring; payload = Codec.slice_of_string wire });
  p.next_heartbeat <- Q.add now t.cfg.heartbeat

let mark_established t p ~now =
  if not p.established then begin
    p.established <- true;
    p.was_up <- true;
    p.said_bye <- false;
    p.backoff <- t.cfg.announce_base;
    Trace.emit t.sink (Trace.Peer_up { t = ft now; peer = p.id });
    (* get a payload to the fresh peer right away *)
    p.next_heartbeat <- now
  end;
  p.last_heard <- now

let hello_body t =
  Frame.Hello
    { nodes = System_spec.n t.cfg.spec; digest = config_digest t.cfg }

let hello_ack_body t =
  Frame.Hello_ack
    { nodes = System_spec.n t.cfg.spec; digest = config_digest t.cfg }

let digest_matches t nodes digest =
  nodes = System_spec.n t.cfg.spec && digest = config_digest t.cfg

let handle t ~now ~bytes (frame : Frame.t) =
  match Hashtbl.find_opt t.peers frame.sender with
  | _ when t.failed ->
    note_drop t ~now
      (Printf.sprintf "frame from %d: session failed" frame.sender)
  | None ->
    note_drop t ~now
      (Printf.sprintf "frame from non-neighbor %d" frame.sender)
  | Some p -> (
    Trace.emit t.sink
      (Trace.Net_rx
         {
           t = ft now;
           src = frame.sender;
           kind = Frame.kind_label frame.body;
           bytes;
         });
    p.last_heard <- now;
    match frame.body with
    | Frame.Hello { nodes; digest } ->
      if not (digest_matches t nodes digest) then
        note_drop t ~now
          (Printf.sprintf "config mismatch with peer %d" p.id)
      else begin
        mark_established t p ~now;
        emit_frame t ~now ~dst:p.id (hello_ack_body t)
      end
    | Frame.Hello_ack { nodes; digest } ->
      if not (digest_matches t nodes digest) then
        note_drop t ~now
          (Printf.sprintf "config mismatch with peer %d" p.id)
      else mark_established t p ~now
    | Frame.Data { msg; dst; lost; payload } ->
      List.iter (apply_loss_verdict t) lost;
      if dst <> t.cfg.me then
        note_drop t ~now (Printf.sprintf "data for %d misrouted" dst)
      else if msg <= p.last_seen_msg then begin
        (* duplicate or reordered datagram: the CSA must not record a
           second receive event, but re-acking quiets the sender's
           retransmission timer when our first ack was lost *)
        if t.cfg.lossy then emit_frame t ~now ~dst:p.id (Frame.Ack { msg });
        note_drop t ~now (Printf.sprintf "stale data msg %d" msg)
      end
      else if Csa.msg_known_lost t.csa ~msg then
        (* the sender's gossiped ring already declared this very message
           lost: the sender rolled its frontier back and re-reported the
           events under a fresh id, so the verdict stands on this end
           too and the late datagram is discarded.  Receiving it instead
           would resurrect a send the Section 3.3 machinery has written
           off — and wedge this session's history against its oracle. *)
        note_drop t ~now
          (Printf.sprintf "data msg %d outlived its loss verdict" msg)
      else (
        (* [payload] borrows the loop's receive buffer; decode in place
           now — nothing may retain the slice past this handler *)
        let t0 = Prof.start t.prof in
        let decoded = Codec.decode_slice payload in
        Prof.stop t.prof "codec_decode" t0;
        match decoded with
        | Error e -> note_drop t ~now ("payload: " ^ e)
        | Ok pl -> (
          match Csa.receive t.csa ~msg ~lt:(Clock.floor_ticks now) pl with
          | () ->
            p.last_seen_msg <- msg;
            Trace.emit t.sink
              (Trace.Receive
                 { t = ft now; src = p.id; dst = t.cfg.me; msg });
            (* write-ahead: an ack licenses the sender to garbage-collect
               what it showed us, so the receive (and the dedup floor
               just raised) must be durable before the ack leaves *)
            do_checkpoint t ~now;
            if t.cfg.lossy then
              emit_frame t ~now ~dst:p.id (Frame.Ack { msg });
            (* data implies the peer considers us up *)
            mark_established t p ~now
          | exception History.Not_causally_closed m ->
            (* healthy in lossy operation: the datagram carrying this
               payload's dependencies was dropped and its retransmission
               has not landed yet — dropping and waiting is the
               protocol's answer, not a breach of it *)
            note_drop t ~now ("awaiting dependencies: " ^ m)
          | exception Invalid_argument m ->
            (* a refusal can come after the payload was integrated (an
               edge weight off the lattice, say): like a negative cycle
               below, it leaves the receive half-applied *)
            violation t ~now ~peer:p.id ~msg ~rule:"wire_contract" m;
            t.failed <- true
          | exception Agdp.Negative_cycle ->
            (* the peer's timestamps cannot all be true under the spec:
               a clock outside its declared drift bound, or a delay
               outside the link's transit bounds.  The receive broke
               off half-applied and nothing rolls it back, so the
               session fail-stops rather than serve estimates from a
               CSA holding part of a contradiction. *)
            violation t ~now ~peer:p.id ~msg ~rule:"spec_violation"
              "payload contradicts the declared drift/transit bounds";
            t.failed <- true
          | exception Failure m -> note_drop t ~now ("bad payload: " ^ m)))
    | Frame.Ack { msg } ->
      (* an ack after the timeout already declared the loss is ignored:
         the verdict stands (and stays sound — see DESIGN.md) *)
      if List.mem_assoc msg p.inflight then begin
        p.inflight <- List.remove_assoc msg p.inflight;
        Csa.on_msg_delivered t.csa ~msg
      end
    | Frame.Bye ->
      p.said_bye <- true;
      if p.established then begin
        p.established <- false;
        Trace.emit t.sink (Trace.Peer_down { t = ft now; peer = p.id })
      end)

let peer_reachable t ~peer ~now =
  match Hashtbl.find_opt t.peers peer with
  | None -> ()
  | Some p ->
    if not p.reachable then begin
      p.reachable <- true;
      p.next_announce <- now;
      p.backoff <- t.cfg.announce_base;
      (* an address just learned counts as a sign of life *)
      p.last_heard <- now
    end

let tick_peer t p ~now =
  if p.reachable && (not p.established) && (not p.said_bye)
     && (not t.stopped)
     && Q.(p.next_announce <= now)
  then begin
    emit_frame t ~now ~dst:p.id (hello_body t);
    p.next_announce <- Q.add now p.backoff;
    p.backoff <- Q.min (Q.mul_int p.backoff 2) t.cfg.announce_cap
  end;
  if p.established && Q.(Q.add p.last_heard t.cfg.peer_timeout <= now)
  then begin
    p.established <- false;
    Trace.emit t.sink (Trace.Peer_down { t = ft now; peer = p.id });
    p.next_announce <- now;
    p.backoff <- t.cfg.announce_base
  end;
  (let due, rest =
     List.partition (fun (_, dl) -> Q.(dl <= now)) p.inflight
   in
   if due <> [] then begin
     p.inflight <- rest;
     List.iter
       (fun (msg, _) ->
         apply_loss_verdict t msg;
         Trace.emit t.sink (Trace.Lost { t = ft now; msg });
         Trace.emit t.sink
           (Trace.Retransmit { t = ft now; peer = p.id; msg }))
       due;
     (* the re-buffered events should travel promptly, not wait out the
        full heartbeat *)
     if p.established then p.next_heartbeat <- now
   end);
  if p.established && (not t.stopped) && Q.(p.next_heartbeat <= now) then
    send_data t ~now ~dst:p.id

let tick t ~now =
  if not t.failed then
    List.iter (fun id -> tick_peer t (Hashtbl.find t.peers id) ~now) t.peer_order

let next_deadline t =
  let add acc d = match acc with None -> Some d | Some a -> Some (Q.min a d) in
  if t.failed then None
  else
  (* readings are whole ticks, so a deadline is first due at its ceil
     tick; a driver that woke any earlier would find nothing due *)
  Option.map Clock.ceil_tick
  @@ Hashtbl.fold
    (fun _ p acc ->
      let acc =
        if p.reachable && (not p.established) && (not p.said_bye)
           && not t.stopped
        then add acc p.next_announce
        else acc
      in
      let acc =
        if p.established then
          let acc =
            if t.stopped then acc else add acc p.next_heartbeat
          in
          add acc (Q.add p.last_heard t.cfg.peer_timeout)
        else acc
      in
      List.fold_left (fun acc (_, dl) -> add acc dl) acc p.inflight)
    t.peers None

let float_width i =
  match Interval.width i with
  | Ext.Fin w -> Q.to_float w
  | Ext.Inf -> infinity

let sample t ~now ?truth () =
  let est = Csa.estimate_at t.csa ~lt:(Clock.floor_ticks now) in
  let contained =
    match truth with Some tr -> Interval.mem tr est | None -> true
  in
  Trace.emit t.sink
    (Trace.Estimate
       {
         t = ft now;
         node = t.cfg.me;
         algo = "optimal";
         width = float_width est;
         contained;
       });
  est

let stop t ~now =
  if not t.stopped then begin
    t.stopped <- true;
    Hashtbl.iter
      (fun _ p ->
        if p.reachable then emit_frame t ~now ~dst:p.id Frame.Bye)
      t.peers
  end

let all_peers_done t =
  t.peer_order <> []
  && List.for_all
       (fun id ->
         let p = Hashtbl.find t.peers id in
         p.was_up && p.said_bye)
       t.peer_order
