type retained = { ev : Event.t; arrival : Q.t (* my local time when learned *) }

type t = {
  spec : System_spec.t;
  me : Event.proc;
  window : Q.t;
  recompute : Q.t;
  mutable retained : retained list; (* newest first *)
  known : int array; (* per processor: highest seq retained-or-seen *)
  mutable my_seq : int; (* fabricated ids for my own timeline *)
  mutable anchor : (Q.t * Interval.t) option;
  mutable last_recompute : Q.t option;
}

let name = "driftfree"

(* events carry readings in ticks; the window arithmetic is rational *)
let q = System_spec.q_of_ticks

let create ~window ?recompute spec ~me ~lt0 =
  if Q.(window <= zero) then invalid_arg "Driftfree.create: window <= 0";
  let recompute =
    match recompute with Some r -> r | None -> Q.div_int window 8
  in
  if Q.(recompute <= zero) then invalid_arg "Driftfree.create: recompute <= 0";
  let t =
    {
      spec;
      me;
      window;
      recompute;
      retained = [];
      known = Array.make (System_spec.n spec) (-1);
      my_seq = 0;
      anchor = None;
      last_recompute = None;
    }
  in
  let init = { Event.id = { proc = me; seq = 0 }; lt = lt0; kind = Event.Init } in
  let lt0 = q lt0 in
  t.retained <- [ { ev = init; arrival = lt0 } ];
  t.known.(me) <- 0;
  t.my_seq <- 1;
  if me = System_spec.source spec then t.anchor <- Some (lt0, Interval.point lt0);
  t

let retained_events t = List.length t.retained

let retain t ~arrival (ev : Event.t) =
  let p = Event.loc ev in
  if ev.id.seq > t.known.(p) then begin
    t.known.(p) <- ev.id.seq;
    t.retained <- { ev; arrival } :: t.retained
  end

let prune t ~now =
  let horizon = Q.sub now t.window in
  t.retained <- List.filter (fun r -> Q.(r.arrival >= horizon)) t.retained

let fresh_own t ~lt kind =
  let e = { Event.id = { proc = t.me; seq = t.my_seq }; lt; kind } in
  t.my_seq <- t.my_seq + 1;
  e

let on_send t ~(payload : Payload.t) =
  let s = payload.send_event in
  (* re-key the send event onto my private timeline numbering *)
  let dst = match s.kind with Event.Send { dst; _ } -> dst | _ -> t.me in
  let msg = match s.kind with Event.Send { msg; _ } -> msg | _ -> -1 in
  let e = fresh_own t ~lt:s.lt (Event.Send { msg; dst }) in
  let now = q s.lt in
  retain t ~arrival:now e;
  prune t ~now

let deviation_of t p = Drift.max_deviation (System_spec.drift t.spec p)

(* Propagate an interval for the source time forward by a local elapse Δ:
   the source advances by the real elapse, which is in [rmin·Δ, rmax·Δ]. *)
let propagate t interval delta =
  if Q.sign delta < 0 then invalid_arg "Driftfree: query before anchor";
  let d = System_spec.drift t.spec t.me in
  Interval.widen
    (Interval.shift interval delta)
    ~lo_by:(Q.mul (Q.sub Q.one d.Drift.rmin) delta)
    ~hi_by:(Q.mul (Q.sub d.Drift.rmax Q.one) delta)

let widen_anchor t (anchor_lt, interval) lt = propagate t interval (Q.sub lt anchor_lt)

(* Build the drift-free window graph and compute the interval at my last
   retained event, then widen to [lt]. *)
let window_estimate t ~lt =
  if t.me = System_spec.source t.spec then Some (Interval.point lt)
  else begin
    let events = List.map (fun r -> r.ev) t.retained in
    let n_ev = List.length events in
    let index = Event.Id_tbl.create n_ev in
    let arr = Array.of_list events in
    Array.iteri (fun i (e : Event.t) -> Event.Id_tbl.replace index e.id i) arr;
    let g = Digraph.create n_ev in
    (* same-processor edges, weight 0 both ways (the drift-free pretence) *)
    let by_proc = Hashtbl.create 8 in
    Array.iter
      (fun (e : Event.t) ->
        let p = Event.loc e in
        Hashtbl.replace by_proc p
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_proc p)))
      arr;
    Hashtbl.iter
      (fun _ evs ->
        let sorted =
          List.sort (fun (a : Event.t) (b : Event.t) -> compare a.id.seq b.id.seq) evs
        in
        let rec link = function
          | a :: (b :: _ as rest) ->
            let ia = Event.Id_tbl.find index a.Event.id
            and ib = Event.Id_tbl.find index b.Event.id in
            Digraph.add_edge g ia ib Q.zero;
            Digraph.add_edge g ib ia Q.zero;
            link rest
          | _ -> ()
        in
        link sorted)
      by_proc;
    (* message edges where both endpoints survived the window *)
    let sends = Hashtbl.create 16 in
    Array.iter
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Send { msg; _ } -> Hashtbl.replace sends msg e
        | _ -> ())
      arr;
    Array.iter
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Recv { msg; src; _ } -> begin
          match Hashtbl.find_opt sends msg with
          | None -> ()
          | Some s ->
            let tr = System_spec.transit_exn t.spec src (Event.loc e) in
            let vd = q (e.lt - s.lt) in
            let is = Event.Id_tbl.find index s.id
            and ie = Event.Id_tbl.find index e.id in
            Digraph.add_edge g is ie (Q.sub vd tr.Transit.lo);
            (match tr.Transit.hi with
            | Ext.Inf -> ()
            | Ext.Fin hi -> Digraph.add_edge g ie is (Q.sub hi vd))
        end
        | _ -> ())
      arr;
    (* latest retained source point and my latest retained point *)
    let latest p =
      Array.to_list arr
      |> List.filter (fun (e : Event.t) -> Event.loc e = p)
      |> List.fold_left
           (fun acc (e : Event.t) ->
             match acc with
             | Some (a : Event.t) when a.id.seq >= e.id.seq -> acc
             | _ -> Some e)
           None
    in
    match latest (System_spec.source t.spec), latest t.me with
    | None, _ | _, None -> None
    | Some sp, Some p -> begin
      try
        let isp = Event.Id_tbl.find index sp.id
        and ip = Event.Id_tbl.find index p.id in
        let from_sp = Bellman_ford.sssp g isp in
        let to_sp = Bellman_ford.sssp (Digraph.reverse g) isp in
        match from_sp.(ip), to_sp.(ip) with
        | Ext.Fin d_sp_p, Ext.Fin d_p_sp ->
          (* fudge: each processor's retained local span times its drift
             deviation, summed — covers every simple path's ignored drift *)
          let fudge =
            Hashtbl.fold
              (fun proc evs acc ->
                let lts = List.map (fun (e : Event.t) -> e.lt) evs in
                let span =
                  match lts with
                  | [] -> Q.zero
                  | x :: rest ->
                    let mn = List.fold_left min x rest
                    and mx = List.fold_left max x rest in
                    q (mx - mn)
                in
                Q.add acc (Q.mul (deviation_of t proc) span))
              by_proc Q.zero
          in
          let p_lt = q p.lt in
          let lo = Q.sub p_lt (Q.add d_sp_p fudge) in
          let hi = Q.add p_lt (Q.add d_p_sp fudge) in
          (* propagate from my last retained point to the query time *)
          Some (propagate t (Interval.of_q lo hi) (Q.sub lt p_lt))
        | _ -> None
      with Bellman_ford.Negative_cycle ->
        (* the drift-free pretence contradicted itself on this window *)
        None
    end
  end

(* Between recomputations the estimate is just the last anchor propagated
   under the drift bound — exactly the "fudge factor" behaviour of the
   strawman.  The expensive window graph is only re-solved every
   [recompute] of local time (at a receive). *)
let estimate_at t ~lt =
  if t.me = System_spec.source t.spec then Interval.point lt
  else
    match t.anchor with
    | None -> Interval.full
    | Some a -> widen_anchor t a lt

let resolve_window t ~lt =
  t.last_recompute <- Some lt;
  let from_anchor = Option.map (fun a -> widen_anchor t a lt) t.anchor in
  let from_window = window_estimate t ~lt in
  let combined =
    match from_anchor, from_window with
    | None, None -> None
    | (Some _ as i), None | None, (Some _ as i) -> i
    | Some a, Some w -> (
      match Interval.inter a w with Some i -> Some i | None -> Some w)
  in
  match combined with
  | Some i -> t.anchor <- Some (lt, i)
  | None -> ()

let on_recv t ~msg ~lt:ticks ~(payload : Payload.t) =
  let lt = q ticks in
  (* my own events are tracked on a private numbering; a peer re-reporting
     them must not introduce a second copy of my timeline *)
  List.iter
    (fun (e : Event.t) -> if Event.loc e <> t.me then retain t ~arrival:lt e)
    payload.events;
  let recv =
    fresh_own t ~lt:ticks
      (Event.Recv
         { msg; src = Event.loc payload.send_event; send = payload.send_event.id })
  in
  retain t ~arrival:lt recv;
  prune t ~now:lt;
  let due =
    match t.last_recompute with
    | None -> true
    | Some last -> Q.(Q.add last t.recompute <= lt)
  in
  if due then resolve_window t ~lt
