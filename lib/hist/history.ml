exception Not_causally_closed of string

type inflight = {
  dst : Event.proc;
  reported : Event.t list;
  prev_frontier : int array; (* C_v,dst before this send *)
}

type t = {
  n_procs : int;
  me : Event.proc;
  neighbors : Event.proc list;
  lossy : bool;
  h : Event.t Event.Id_tbl.t;
  known : int array; (* per processor: highest seq known, -1 = none *)
  frontier : (Event.proc, int array) Hashtbl.t; (* neighbor -> C_v,u *)
  inflight : (int, inflight) Hashtbl.t; (* msg id -> record (lossy mode) *)
  mutable peak_h : int;
  mutable reported_count : int;
}

let create ~n_procs ~me ~neighbors ?(lossy = false) () =
  if me < 0 || me >= n_procs then invalid_arg "History.create: bad processor";
  let t =
    {
      n_procs;
      me;
      neighbors;
      lossy;
      h = Event.Id_tbl.create 64;
      known = Array.make n_procs (-1);
      frontier = Hashtbl.create (List.length neighbors);
      inflight = Hashtbl.create 8;
      peak_h = 0;
      reported_count = 0;
    }
  in
  List.iter
    (fun u ->
      if u < 0 || u >= n_procs || u = me then
        invalid_arg "History.create: bad neighbor";
      Hashtbl.replace t.frontier u (Array.make n_procs (-1)))
    neighbors;
  t

let me t = t.me
let is_lossy t = t.lossy
let known_upto t w = t.known.(w)

let frontier_exn t u =
  match Hashtbl.find_opt t.frontier u with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "History: %d is not a neighbor" u)

let frontier t ~neighbor w = (frontier_exn t neighbor).(w)
let h_size t = Event.Id_tbl.length t.h
let peak_h_size t = t.peak_h
let events_reported t = t.reported_count

let bump_peak t =
  let s = h_size t in
  if s > t.peak_h then t.peak_h <- s

(* An event may leave H once every neighbor's frontier covers it.  In
   lossy mode the frontier advances optimistically at send time, before
   any acknowledgement; collecting against it would discard events whose
   only carrier is a message that may yet be declared lost — a loss
   verdict rolls the frontier back, but the events would be gone from H
   and could never be re-reported.  So coverage for a neighbor is the
   pointwise min of its frontier and the pre-send frontier of every
   message still inflight to it: what the neighbor is *known* to have
   been shown, not what we hope it has. *)
let acked_coverage t u =
  let c = Array.copy (frontier_exn t u) in
  if t.lossy then
    Hashtbl.iter
      (fun _ { dst; prev_frontier; _ } ->
        if dst = u then
          for p = 0 to t.n_procs - 1 do
            if prev_frontier.(p) < c.(p) then c.(p) <- prev_frontier.(p)
          done)
      t.inflight;
  c

let garbage_collect t =
  let coverage = List.map (fun u -> acked_coverage t u) t.neighbors in
  let victims = ref [] in
  Event.Id_tbl.iter
    (fun id _ ->
      let covered =
        List.for_all
          (fun c -> c.(id.Event.proc) >= id.Event.seq)
          coverage
      in
      if covered then victims := id :: !victims)
    t.h;
  List.iter (Event.Id_tbl.remove t.h) !victims

let add_to_h t (e : Event.t) =
  if not (Event.Id_tbl.mem t.h e.id) then Event.Id_tbl.replace t.h e.id e;
  bump_peak t

let record_known t (e : Event.t) =
  let p = Event.loc e in
  if e.id.seq <> t.known.(p) + 1 then
    invalid_arg
      (Format.asprintf "History: non-contiguous event %a (known up to %d)"
         Event.pp_id e.id t.known.(p));
  t.known.(p) <- e.id.seq

let learn_own t (e : Event.t) =
  if Event.loc e <> t.me then invalid_arg "History.learn_own: foreign event";
  if Event.is_send e then
    invalid_arg "History.learn_own: send events go through prepare_send";
  record_known t e;
  add_to_h t e;
  garbage_collect t

let prepare_send t (e : Event.t) =
  let dst, msg =
    match e.kind with
    | Event.Send { dst; msg } when Event.loc e = t.me -> (dst, msg)
    | _ -> invalid_arg "History.prepare_send: not a send event of mine"
  in
  let c = frontier_exn t dst in
  record_known t e;
  add_to_h t e;
  (* M = every known event beyond the destination's frontier.  Events no
     longer in H were garbage-collected, which required this frontier to
     cover them already, so scanning H is exhaustive. *)
  let reported = ref [] in
  Event.Id_tbl.iter
    (fun id ev -> if id.Event.seq > c.(id.Event.proc) then reported := ev :: !reported)
    t.h;
  let reported = !reported in
  t.reported_count <- t.reported_count + List.length reported;
  if t.lossy then
    Hashtbl.replace t.inflight msg
      { dst; reported; prev_frontier = Array.copy c };
  (* after this send, dst has been shown everything we know *)
  Array.blit t.known 0 c 0 t.n_procs;
  garbage_collect t;
  { Payload.send_event = e; events = reported }

(* Dependency-respecting order for a batch of fresh events: an event is
   ready once its same-processor predecessor and (for receives) its send
   are either already known or emitted earlier in the batch. *)
let topo_sort t batch =
  let emitted = Event.Id_tbl.create (List.length batch) in
  let satisfied (dep : Event.id) =
    dep.seq <= t.known.(dep.proc) || Event.Id_tbl.mem emitted dep
  in
  let deps (e : Event.t) =
    let prev = match Event.prev_id e with None -> [] | Some p -> [ p ] in
    match e.kind with
    | Event.Recv { send; _ } -> send :: prev
    | Event.Init | Event.Internal | Event.Send _ -> prev
  in
  let result = ref [] in
  let rec loop remaining =
    if remaining <> [] then begin
      let ready, blocked =
        List.partition (fun e -> List.for_all satisfied (deps e)) remaining
      in
      if ready = [] then begin
        (* name the first few unmet dependencies: over a real network
           this string ends up in net_drop trace events, where knowing
           *which* events a sender under-reported is what makes loss
           bugs diagnosable *)
        let missing =
          List.concat_map
            (fun e ->
              List.filter (fun d -> not (satisfied d)) (deps e)
              |> List.map (fun (d : Event.id) ->
                     Format.asprintf "%a needs %a" Event.pp_id e.Event.id
                       Event.pp_id d))
            remaining
        in
        let shown, rest =
          if List.length missing > 4 then
            ( List.filteri (fun i _ -> i < 4) missing,
              Printf.sprintf "; +%d more" (List.length missing - 4) )
          else (missing, "")
        in
        raise
          (Not_causally_closed
             ("History.integrate: payload not causally closed: "
             ^ String.concat "; " shown ^ rest))
      end;
      List.iter
        (fun (e : Event.t) ->
          Event.Id_tbl.replace emitted e.id ();
          result := e :: !result)
        ready;
      loop blocked
    end
  in
  loop batch;
  List.rev !result

let integrate t (payload : Payload.t) =
  let from_ = Event.loc payload.send_event in
  let c = frontier_exn t from_ in
  (* fresh = not yet known; knowledge per processor is a prefix *)
  let fresh =
    List.filter
      (fun (e : Event.t) -> e.id.seq > t.known.(Event.loc e))
      payload.events
  in
  let fresh = topo_sort t fresh in
  List.iter
    (fun (e : Event.t) ->
      record_known t e;
      add_to_h t e)
    fresh;
  (* the sender reported exactly [payload.events] on this link: advance
     its frontier to those events (prose rule of Section 3.1) *)
  List.iter
    (fun (e : Event.t) ->
      let w = Event.loc e in
      if e.id.seq > c.(w) then c.(w) <- e.id.seq)
    payload.events;
  garbage_collect t;
  fresh

type snapshot = {
  s_known : int array;
  s_frontiers : (Event.proc * int array) list;
  s_events : Event.t list;
  s_inflight : (int * Event.proc * Event.t list * int array) list;
  s_peak : int;
  s_reported : int;
}

let snapshot t =
  {
    s_known = Array.copy t.known;
    s_frontiers =
      Hashtbl.fold (fun u c acc -> (u, Array.copy c) :: acc) t.frontier []
      |> List.sort compare;
    s_events =
      Event.Id_tbl.fold (fun _ e acc -> e :: acc) t.h []
      |> List.sort (fun (a : Event.t) (b : Event.t) ->
             Event.id_compare a.id b.id);
    s_inflight =
      Hashtbl.fold
        (fun msg { dst; reported; prev_frontier } acc ->
          (msg, dst, reported, Array.copy prev_frontier) :: acc)
        t.inflight []
      |> List.sort compare;
    s_peak = t.peak_h;
    s_reported = t.reported_count;
  }

let restore ~n_procs ~me ~neighbors ?(lossy = false) s =
  let t = create ~n_procs ~me ~neighbors ~lossy () in
  Array.blit s.s_known 0 t.known 0 n_procs;
  List.iter
    (fun (u, c) -> Array.blit c 0 (frontier_exn t u) 0 n_procs)
    s.s_frontiers;
  Event.Id_tbl.reset t.h;
  List.iter (fun (e : Event.t) -> Event.Id_tbl.replace t.h e.id e) s.s_events;
  List.iter
    (fun (msg, dst, reported, prev_frontier) ->
      Hashtbl.replace t.inflight msg { dst; reported; prev_frontier })
    s.s_inflight;
  t.peak_h <- s.s_peak;
  t.reported_count <- s.s_reported;
  t

let inflight_msgs t =
  Hashtbl.fold (fun msg { dst; _ } acc -> (msg, dst) :: acc) t.inflight []
  |> List.sort compare

let on_delivered t ~msg =
  if t.lossy && Hashtbl.mem t.inflight msg then begin
    Hashtbl.remove t.inflight msg;
    (* an acknowledgement is exactly when acked coverage improves, so
       events retained only for this message's sake can go now *)
    garbage_collect t
  end

let on_lost t ~msg =
  if t.lossy then begin
    match Hashtbl.find_opt t.inflight msg with
    | None -> ()
    | Some { dst; reported; prev_frontier } ->
      Hashtbl.remove t.inflight msg;
      let c = frontier_exn t dst in
      (* Roll back conservatively: anything this message was the evidence
         for is no longer considered shown.  Over-rollback only causes
         re-reporting, never incorrectness.  Pointwise min, not a blit:
         with several messages inflight to the same destination, loss
         verdicts can arrive oldest-first, and overwriting would raise
         the frontier back past an earlier rollback — the gap would then
         never be re-reported and every later payload to dst would be
         rejected as not causally closed. *)
      for p = 0 to t.n_procs - 1 do
        if prev_frontier.(p) < c.(p) then c.(p) <- prev_frontier.(p)
      done;
      List.iter (add_to_h t) reported
  end
