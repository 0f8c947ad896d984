type t = {
  spec : System_spec.t;
  me : Event.proc;
  hist : History.t;
  agdp : Agdp.t;
  shadow : Fw_oracle.t option; (* under [validate]: the naive reference *)
  prof : Prof.t;
  sink : Trace.sink; (* liveness-change events *)
  last_known : Event.t option array; (* per processor: newest event known *)
  pending : (int, Event.t) Hashtbl.t; (* msg id -> live send event *)
  known_lost : (int, unit) Hashtbl.t; (* messages flagged lost (Sec 3.3) *)
  mutable next_seq : int; (* my next event sequence number *)
  mutable last_lt : Q.t;
  mutable peak_live : int;
  mutable processed : int;
}

let me t = t.me
let spec t = t.spec
let last_lt t = t.last_lt
let live_count t = Agdp.size t.agdp
let peak_live_count t = t.peak_live
let history_size t = History.h_size t.hist
let peak_history_size t = History.peak_h_size t.hist
let oracle_relaxations t = Agdp.relaxations t.agdp
let events_processed t = t.processed
let events_reported t = History.events_reported t.hist
let known_upto t w = History.known_upto t.hist w

(* --- the distance structure -------------------------------------------

   Every mutation goes to [agdp] and, under [validate], to the
   Floyd–Warshall [shadow]; each side is timed as its own profiler span,
   closed even when the mutation raises.  The two must agree on accepting
   or rejecting every mutation, and after each accepted one (and on
   restore) the live sets and all live-pair distances are compared.  A
   divergence is a bug in one of them (almost certainly the optimized
   one), so it fails hard rather than limping on. *)

let diverged fmt =
  Printf.ksprintf
    (fun msg -> failwith ("Csa.validate: agdp vs floyd-warshall: " ^ msg))
    fmt

let dist t x y =
  let d = Agdp.dist t.agdp x y in
  (match t.shadow with
  | Some fw ->
    let d' = Fw_oracle.dist fw x y in
    if not (Ext.equal d d') then
      diverged "dist %d -> %d: %s vs %s" x y (Ext.to_string d)
        (Ext.to_string d')
  | None -> ());
  d

let verify t fw =
  let keys = Agdp.live_keys t.agdp and fkeys = Fw_oracle.live_keys fw in
  if keys <> fkeys then
    diverged "live sets differ (%d vs %d keys)" (List.length keys)
      (List.length fkeys);
  List.iter (fun x -> List.iter (fun y -> ignore (dist t x y)) keys) keys

(* [f x] timed as the profiler span [name], closed even when [f] raises *)
let timed prof name f x =
  let t0 = Prof.start prof in
  match f x with
  | () -> Prof.stop prof name t0
  | exception e ->
    Prof.stop prof name t0;
    raise e

let mutate t what (agdp_span, on_agdp) (fw_span, on_fw) =
  match t.shadow with
  | None -> timed t.prof agdp_span on_agdp t.agdp
  | Some fw -> (
    let attempt span f x = try Ok (timed t.prof span f x) with e -> Error e in
    let a = attempt agdp_span on_agdp t.agdp in
    match (a, attempt fw_span on_fw fw) with
    | Ok (), Ok () -> verify t fw
    | Error Agdp.Negative_cycle, Error Agdp.Negative_cycle ->
      raise Agdp.Negative_cycle
    | Error (Invalid_argument m), Error (Invalid_argument _) -> invalid_arg m
    | Error e, Error e' ->
      diverged "%s: mismatched exceptions %s vs %s" what
        (Printexc.to_string e) (Printexc.to_string e')
    | Error e, Ok () ->
      diverged "%s: only agdp rejected (%s)" what (Printexc.to_string e)
    | Ok (), Error e ->
      diverged "%s: only floyd-warshall rejected (%s)" what
        (Printexc.to_string e))

let insert_key t ~key ~in_edges ~out_edges =
  mutate t "insert"
    ("agdp_insert", fun a -> Agdp.insert a ~key ~in_edges ~out_edges)
    ("fw_insert", fun fw -> Fw_oracle.insert fw ~key ~in_edges ~out_edges)

let kill_key t key =
  mutate t "kill"
    ("agdp_kill", fun a -> Agdp.kill a key)
    ("fw_kill", fun fw -> Fw_oracle.kill fw key)

(* Event ids are mapped to AGDP keys by the reversible encoding
   [seq * n + proc]. *)
let key_of t (id : Event.id) = (id.seq * System_spec.n t.spec) + id.proc

let id_of t key =
  let n = System_spec.n t.spec in
  { Event.proc = key mod n; seq = key / n }

let live_event_ids t = List.map (id_of t) (Agdp.live_keys t.agdp)
let dist_between t a b = dist t (key_of t a) (key_of t b)

let is_last_known t (e : Event.t) =
  match t.last_known.(Event.loc e) with
  | Some last -> Event.id_equal last.id e.id
  | None -> false

let is_pending_send t (e : Event.t) =
  match e.kind with
  | Event.Send { msg; _ } -> Hashtbl.mem t.pending msg
  | _ -> false

(* Insert one event of the local view into the AGDP structure, in causal
   order, and update liveness per Definition 3.1. *)
let insert_event t (e : Event.t) =
  let prev = t.last_known.(Event.loc e) in
  (match prev, Event.prev_id e with
  | None, None -> ()
  | Some p, Some pid when Event.id_equal p.id pid -> ()
  | _ ->
    invalid_arg
      (Format.asprintf "Csa: event %a inserted out of causal order"
         Event.pp_id e.id));
  let edges =
    let proc_part =
      match prev with
      | None -> []
      | Some p -> Edges.proc_edges t.spec ~prev:p ~next:e
    in
    let msg_part =
      match e.kind with
      | Event.Recv { msg; _ } -> (
        match Hashtbl.find_opt t.pending msg with
        | Some send_ev -> Edges.msg_edges t.spec ~send:send_ev ~recv:e
        | None ->
          if Hashtbl.mem t.known_lost msg then
            (* a Section 3.3 verdict already wrote this message off and
               its send is no longer pending, yet the datagram reached
               its destination anyway and the receive is part of that
               processor's history.  Keep the event on processor edges
               alone: dropping the message edges only widens bounds,
               which is sound, whereas rejecting the event would leave
               the history and the distance oracle permanently out of
               step. *)
            []
          else
            invalid_arg
              (Format.asprintf "Csa: receive %a for unknown send" Event.pp_id
                 e.id))
      | Event.Init | Event.Internal | Event.Send _ -> []
    in
    proc_part @ msg_part
  in
  let in_edges, out_edges =
    List.fold_left
      (fun (ins, outs) { Edges.src; dst; w } ->
        if Event.id_equal dst e.id then ((key_of t src, w) :: ins, outs)
        else if Event.id_equal src e.id then (ins, (key_of t dst, w) :: outs)
        else (ins, outs))
      ([], []) edges
  in
  insert_key t ~key:(key_of t e.id) ~in_edges ~out_edges;
  t.processed <- t.processed + 1;
  (* Liveness updates (Definition 3.1): *)
  (* 1. the predecessor stops being the last point of its processor *)
  (match prev with
  | Some p when not (is_pending_send t p) ->
    kill_key t (key_of t p.id)
  | _ -> ());
  (* 2. a receive closes its message: the send is no longer pending *)
  (match e.kind with
  | Event.Recv { msg; _ } ->
    (match Hashtbl.find_opt t.pending msg with
    | Some s ->
      Hashtbl.remove t.pending msg;
      if not (is_last_known t s) then
        kill_key t (key_of t s.id)
    | None -> ())
  | _ -> ());
  (* 3. a send becomes pending — unless already flagged lost (Sec 3.3) *)
  (match e.kind with
  | Event.Send { msg; _ } ->
    if not (Hashtbl.mem t.known_lost msg) then Hashtbl.replace t.pending msg e
  | _ -> ());
  t.last_known.(Event.loc e) <- Some e;
  let l = Agdp.size t.agdp in
  if l > t.peak_live then t.peak_live <- l;
  Trace.emit t.sink (Trace.Liveness { node = t.me; live = l })

let create ?(lossy = false) ?(validate = false) ?(sink = Trace.null)
    ?(prof = Prof.null) ?neighbors spec ~me ~lt0 =
  let t =
    {
      spec;
      me;
      hist =
        History.create ~n_procs:(System_spec.n spec) ~me
          ~neighbors:
            (Option.value neighbors ~default:(System_spec.neighbors spec me))
          ~lossy ();
      agdp = Agdp.create ~sink ();
      shadow = (if validate then Some (Fw_oracle.create ()) else None);
      prof;
      sink;
      last_known = Array.make (System_spec.n spec) None;
      pending = Hashtbl.create 16;
      known_lost = Hashtbl.create 4;
      next_seq = 0;
      last_lt = lt0;
      peak_live = 0;
      processed = 0;
    }
  in
  let init = { Event.id = { proc = me; seq = 0 }; lt = lt0; kind = Event.Init } in
  t.next_seq <- 1;
  History.learn_own t.hist init;
  insert_event t init;
  t

let fresh_own_event t ~lt kind =
  if Q.(lt < t.last_lt) then invalid_arg "Csa: local time regression";
  let e =
    { Event.id = { proc = t.me; seq = t.next_seq }; lt; kind }
  in
  t.next_seq <- t.next_seq + 1;
  t.last_lt <- lt;
  e

let local_event t ~lt =
  let e = fresh_own_event t ~lt Event.Internal in
  History.learn_own t.hist e;
  insert_event t e

let send t ~dst ~msg ~lt =
  if System_spec.transit t.spec t.me dst = None then
    invalid_arg (Printf.sprintf "Csa.send: no link %d-%d" t.me dst);
  let e = fresh_own_event t ~lt (Event.Send { msg; dst }) in
  let payload = History.prepare_send t.hist e in
  insert_event t e;
  payload

let receive t ~msg ~lt (payload : Payload.t) =
  let send_ev = payload.send_event in
  (match send_ev.kind with
  | Event.Send { msg = m; dst } when m = msg && dst = t.me -> ()
  | _ -> invalid_arg "Csa.receive: payload does not match message");
  let fresh = History.integrate t.hist payload in
  List.iter (insert_event t) fresh;
  let recv =
    fresh_own_event t ~lt
      (Event.Recv { msg; src = Event.loc send_ev; send = send_ev.id })
  in
  History.learn_own t.hist recv;
  insert_event t recv

let on_msg_delivered t ~msg = History.on_delivered t.hist ~msg
let inflight t = History.inflight_msgs t.hist

let msg_known_lost t ~msg = Hashtbl.mem t.known_lost msg

let on_msg_lost t ~msg =
  History.on_lost t.hist ~msg;
  Hashtbl.replace t.known_lost msg ();
  match Hashtbl.find_opt t.pending msg with
  | Some s ->
    Hashtbl.remove t.pending msg;
    if not (is_last_known t s) then begin
      kill_key t (key_of t s.id);
      Trace.emit t.sink
        (Trace.Liveness { node = t.me; live = Agdp.size t.agdp })
    end
  | None -> ()

(* --- persistence ---------------------------------------------------- *)

(* Serialization layout (Codec primitives): format version; me; lossy;
   next_seq; last_lt; peak_live; processed; last_known (per processor, an
   optional event); pending messages (count, then msg id + send event
   each); lost message ids; history snapshot; agdp snapshot. *)

let snapshot_version = 1

let add_ext buf = function
  | Ext.Inf -> Codec.add_varint buf 0
  | Ext.Fin q ->
    Codec.add_varint buf 1;
    Codec.add_q buf q

let read_ext r =
  match Codec.read_varint r with
  | 0 -> Ext.Inf
  | 1 -> Ext.Fin (Codec.read_q r)
  | _ -> failwith "Csa.restore: bad extended value tag"

let add_int_array buf a =
  Codec.add_varint buf (Array.length a);
  (* entries may be -1 (nothing known): shift into non-negatives *)
  Array.iter (fun x -> Codec.add_varint buf (x + 1)) a

(* Length prefixes come from the (possibly corrupt or hostile) blob, so
   they are validated before any allocation: every encoded element
   occupies at least one byte, so a count exceeding the remaining input
   is a lie — fail with a clean [Failure] instead of handing a bogus
   size to [Array.make]. *)
let read_length r what =
  let n = Codec.read_varint r in
  if n < 0 || n > Codec.remaining r then
    failwith (Printf.sprintf "Csa.restore: bad %s length" what);
  n

let read_int_array r =
  let n = read_length r "int array" in
  let a = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    a.(i) <- Codec.read_varint r - 1
  done;
  Array.sub a 0 n

let add_event_list buf events =
  Codec.add_varint buf (List.length events);
  List.iter (Codec.add_event buf) events

let read_event_list r =
  let n = read_length r "event list" in
  let acc = ref [] in
  for _ = 1 to n do
    acc := Codec.read_event r :: !acc
  done;
  List.rev !acc

let snapshot t =
  let buf = Buffer.create 1024 in
  Codec.add_varint buf snapshot_version;
  Codec.add_varint buf t.me;
  Codec.add_varint buf (if History.is_lossy t.hist then 1 else 0);
  Codec.add_varint buf t.next_seq;
  Codec.add_q buf t.last_lt;
  Codec.add_varint buf t.peak_live;
  Codec.add_varint buf t.processed;
  Array.iter
    (function
      | None -> Codec.add_varint buf 0
      | Some e ->
        Codec.add_varint buf 1;
        Codec.add_event buf e)
    t.last_known;
  let pending = Hashtbl.fold (fun m e acc -> (m, e) :: acc) t.pending [] in
  Codec.add_varint buf (List.length pending);
  (* sort by message id only: polymorphic compare would descend into the
     event payloads (bigint timestamps), where physical structure rather
     than value could decide the order *)
  List.iter
    (fun (m, e) ->
      Codec.add_varint buf m;
      Codec.add_event buf e)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) pending);
  let lost = Hashtbl.fold (fun m () acc -> m :: acc) t.known_lost [] in
  Codec.add_varint buf (List.length lost);
  List.iter (Codec.add_varint buf) (List.sort Int.compare lost);
  (* history *)
  let hs = History.snapshot t.hist in
  add_int_array buf hs.History.s_known;
  Codec.add_varint buf (List.length hs.History.s_frontiers);
  List.iter
    (fun (u, c) ->
      Codec.add_varint buf u;
      add_int_array buf c)
    hs.History.s_frontiers;
  add_event_list buf hs.History.s_events;
  Codec.add_varint buf (List.length hs.History.s_inflight);
  List.iter
    (fun (msg, dst, reported, prev) ->
      Codec.add_varint buf msg;
      Codec.add_varint buf dst;
      add_event_list buf reported;
      add_int_array buf prev)
    hs.History.s_inflight;
  Codec.add_varint buf hs.History.s_peak;
  Codec.add_varint buf hs.History.s_reported;
  (* AGDP: the snapshot matrix is already flat row-major, count × count *)
  let gs = Agdp.snapshot t.agdp in
  Codec.add_varint buf (Array.length gs.Agdp.s_keys);
  Array.iter (Codec.add_varint buf) gs.Agdp.s_keys;
  Array.iter (add_ext buf) gs.Agdp.s_dist;
  Codec.add_varint buf gs.Agdp.s_relaxations;
  Codec.add_varint buf gs.Agdp.s_peak;
  Buffer.contents buf

let restore_reader ?(validate = false) ?(sink = Trace.null)
    ?(prof = Prof.null) ?neighbors spec r =
  if Codec.read_varint r <> snapshot_version then
    failwith "Csa.restore: unsupported snapshot version";
  let me = Codec.read_varint r in
  if me < 0 || me >= System_spec.n spec then failwith "Csa.restore: bad me";
  let lossy = Codec.read_varint r = 1 in
  let next_seq = Codec.read_varint r in
  let last_lt = Codec.read_q r in
  let peak_live = Codec.read_varint r in
  let processed = Codec.read_varint r in
  let n = System_spec.n spec in
  let last_known =
    Array.init n (fun _ ->
        match Codec.read_varint r with
        | 0 -> None
        | 1 -> Some (Codec.read_event r)
        | _ -> failwith "Csa.restore: bad option tag")
  in
  let pending = Hashtbl.create 16 in
  let n_pending = read_length r "pending set" in
  for _ = 1 to n_pending do
    let m = Codec.read_varint r in
    let e = Codec.read_event r in
    Hashtbl.replace pending m e
  done;
  let known_lost = Hashtbl.create 4 in
  let n_lost = read_length r "lost set" in
  for _ = 1 to n_lost do
    Hashtbl.replace known_lost (Codec.read_varint r) ()
  done;
  let spec_neighbors = System_spec.neighbors spec me in
  let neighbors = Option.value neighbors ~default:spec_neighbors in
  (* [History.restore] blits these arrays and resolves the neighbor ids;
     validate here so corruption surfaces as a clean [Failure] rather
     than an [Invalid_argument] from deep inside the blit *)
  let s_known = read_int_array r in
  if Array.length s_known <> n then failwith "Csa.restore: bad known array";
  let n_frontiers = read_length r "frontier list" in
  let s_frontiers = ref [] in
  for _ = 1 to n_frontiers do
    let u = Codec.read_varint r in
    if not (List.mem u spec_neighbors) then
      failwith "Csa.restore: frontier for a non-neighbor";
    let c = read_int_array r in
    if Array.length c <> n then failwith "Csa.restore: bad frontier array";
    (* a spec neighbor outside [neighbors] was never sent anything (older
       hub snapshots kept a frontier for every spec neighbor): its
       frontier carries no obligation *)
    if List.mem u neighbors then s_frontiers := (u, c) :: !s_frontiers
  done;
  let s_frontiers = List.rev !s_frontiers in
  let s_events = read_event_list r in
  let n_inflight = read_length r "inflight list" in
  let s_inflight = ref [] in
  for _ = 1 to n_inflight do
    let msg = Codec.read_varint r in
    let dst = Codec.read_varint r in
    if not (List.mem dst neighbors) then
      failwith "Csa.restore: inflight to a non-neighbor";
    let reported = read_event_list r in
    let prev = read_int_array r in
    if Array.length prev <> n then
      failwith "Csa.restore: bad inflight frontier array";
    s_inflight := (msg, dst, reported, prev) :: !s_inflight
  done;
  let s_inflight = List.rev !s_inflight in
  let s_peak = Codec.read_varint r in
  let s_reported = Codec.read_varint r in
  let hist =
    History.restore ~n_procs:n ~me ~neighbors ~lossy
      {
        History.s_known;
        s_frontiers;
        s_events;
        s_inflight;
        s_peak;
        s_reported;
      }
  in
  let n_keys = read_length r "AGDP key set" in
  let s_keys = Array.make (max n_keys 1) 0 in
  for i = 0 to n_keys - 1 do
    s_keys.(i) <- Codec.read_varint r
  done;
  let s_keys = Array.sub s_keys 0 n_keys in
  (* the flat matrix holds n_keys² cells of ≥ 1 byte each; the bound on
     n_keys above does not imply one on its square *)
  if n_keys * n_keys > Codec.remaining r then
    failwith "Csa.restore: bad AGDP matrix length";
  let s_dist = Array.make (max (n_keys * n_keys) 1) Ext.Inf in
  for i = 0 to (n_keys * n_keys) - 1 do
    s_dist.(i) <- read_ext r
  done;
  let s_dist = Array.sub s_dist 0 (n_keys * n_keys) in
  let s_relaxations = Codec.read_varint r in
  let s_peak_agdp = Codec.read_varint r in
  if not (Codec.at_end r) then failwith "Csa.restore: trailing bytes";
  let gs = { Agdp.s_keys; s_dist; s_relaxations; s_peak = s_peak_agdp } in
  let t =
    {
      spec;
      me;
      hist;
      agdp = Agdp.restore ~sink gs;
      shadow = (if validate then Some (Fw_oracle.restore gs) else None);
      prof;
      sink;
      last_known;
      pending;
      known_lost;
      next_seq;
      last_lt;
      peak_live;
      processed;
    }
  in
  Option.iter (verify t) t.shadow;
  t

let restore ?validate ?sink ?prof ?neighbors spec blob =
  restore_reader ?validate ?sink ?prof ?neighbors spec
    (Codec.reader_of_string blob)

(* ext_L = LT(p) − d(sp, p), ext_U = LT(p) + d(p, sp); a query at local
   time lt >= LT(p) is a virtual event linked to p by drift edges. *)
let estimate_at t ~lt =
  if Q.(lt < t.last_lt) then invalid_arg "Csa.estimate_at: time in the past";
  match t.last_known.(System_spec.source t.spec), t.last_known.(t.me) with
  | None, _ | _, None -> Interval.full
  | Some sp, Some p ->
    let d_p_sp = dist t (key_of t p.id) (key_of t sp.id) in
    let d_sp_p = dist t (key_of t sp.id) (key_of t p.id) in
    let drift = System_spec.drift t.spec t.me in
    let elapsed = Q.sub lt p.lt in
    let lo =
      match d_sp_p with
      | Ext.Inf -> Interval.Neg_inf
      | Ext.Fin d ->
        (* d(sp, x) = d(sp, p) + (1 − rmin)·ℓ *)
        let slack = Q.mul (Q.sub Q.one drift.Drift.rmin) elapsed in
        Interval.B (Q.sub lt (Q.add d slack))
    in
    let hi =
      match d_p_sp with
      | Ext.Inf -> Interval.Pos_inf
      | Ext.Fin d ->
        (* d(x, sp) = (rmax − 1)·ℓ + d(p, sp) *)
        let slack = Q.mul (Q.sub drift.Drift.rmax Q.one) elapsed in
        Interval.B (Q.add lt (Q.add d slack))
    in
    Interval.make lo hi

let estimate t = estimate_at t ~lt:t.last_lt

(* Δ = RT(p) − RT(q) ∈ [vd − d(q,p), vd + d(p,q)] (Theorem 2.1), and Δ >= 0
   because q is in p's causal past; w's clock advances by Δ/rate with
   rate ∈ [rmin_w, rmax_w], so its current reading is in
   [LT(q) + Δmin/rmax, LT(q) + Δmax/rmin]. *)
let peer_clock_bounds t w =
  if w = t.me then Interval.point t.last_lt
  else
    match t.last_known.(w), t.last_known.(t.me) with
    | None, _ | _, None -> Interval.full
    | Some q_ev, Some p_ev ->
      let d_pq =
        dist t (key_of t p_ev.id) (key_of t q_ev.id)
      in
      let d_qp =
        dist t (key_of t q_ev.id) (key_of t p_ev.id)
      in
      let vd = Q.sub p_ev.lt q_ev.lt in
      let drift_w = System_spec.drift t.spec w in
      let lo =
        match d_qp with
        | Ext.Inf -> Interval.B q_ev.lt (* only Δ >= 0 is known *)
        | Ext.Fin d ->
          let delta_min = Q.max Q.zero (Q.sub vd d) in
          Interval.B (Q.add q_ev.lt (Q.div delta_min drift_w.Drift.rmax))
      in
      let hi =
        match d_pq with
        | Ext.Inf -> Interval.Pos_inf
        | Ext.Fin d ->
          let delta_max = Q.add vd d in
          Interval.B (Q.add q_ev.lt (Q.div delta_max drift_w.Drift.rmin))
      in
      Interval.make lo hi
