type assignment = Event.id -> Q.t

(* Enumerate every constraint [RT(src) − RT(dst) <= bound] of the view's
   bounds mapping. *)
let constraints spec view =
  let acc = ref [] in
  View.iter view (fun e ->
      (match Event.prev_id e with
      | None -> ()
      | Some pid ->
        let prev = View.find_exn view pid in
        let d = System_spec.drift spec (Event.loc e) in
        let elapsed = System_spec.q_of_ticks (e.lt - prev.Event.lt) in
        let lo, hi = Drift.rt_bounds d elapsed in
        (* RT(e) − RT(prev) ∈ [lo, hi] *)
        acc := (e.id, pid, hi, "drift upper") :: !acc;
        acc := (pid, e.id, Q.neg lo, "drift lower") :: !acc);
      match e.kind with
      | Event.Recv { send; _ } ->
        let send_ev = View.find_exn view send in
        let tr =
          System_spec.transit_exn spec (Event.loc send_ev) (Event.loc e)
        in
        (* RT(recv) − RT(send) ∈ [lo, hi] *)
        (match tr.Transit.hi with
        | Ext.Fin hi -> acc := (e.id, send, hi, "transit upper") :: !acc
        | Ext.Inf -> ());
        acc := (send, e.id, Q.neg tr.Transit.lo, "transit lower") :: !acc
      | Event.Init | Event.Internal | Event.Send _ -> ());
  !acc

let violations spec view rt =
  List.filter_map
    (fun (src, dst, bound, what) ->
      if Q.((rt src - rt dst) <= bound) then None else Some (src, dst, what))
    (constraints spec view)

let feasible spec view rt = violations spec view rt = []

let extremal spec view ~anchor direction =
  let sg = Sync_graph.build spec view in
  let d =
    match direction with
    | `Latest -> Sync_graph.dist_to sg anchor (* d(x, anchor) *)
    | `Earliest -> Sync_graph.dist_from sg anchor (* d(anchor, x) *)
  in
  fun id ->
    let e = View.find_exn view id in
    match direction, d id with
    | _, Ext.Inf -> raise Not_found
    | `Latest, Ext.Fin dist -> Q.add (System_spec.q_of_ticks e.lt) dist
    | `Earliest, Ext.Fin dist -> Q.sub (System_spec.q_of_ticks e.lt) dist
