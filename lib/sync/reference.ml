let source_point spec view =
  match View.events_of view (System_spec.source spec) with
  | [] -> None
  | e :: _ -> Some e.Event.id

(* ext_L = LT(p) − d(sp, p); ext_U = LT(p) + d(p, sp), covering the true
   instant on a charged spec. *)
let interval_of_dists spec ~(lt : Q.t) ~(d_sp_p : Ext.t) ~(d_p_sp : Ext.t) =
  let lo =
    match d_sp_p with
    | Ext.Inf -> Interval.Neg_inf
    | Ext.Fin d -> Interval.B (Q.sub lt d)
  in
  let hi =
    match d_p_sp with
    | Ext.Inf -> Interval.Pos_inf
    | Ext.Fin d -> Interval.B (Q.add lt d)
  in
  System_spec.cover spec (Interval.make lo hi)

let estimate spec view ~at =
  match source_point spec view with
  | None -> Interval.full
  | Some sp ->
    let sg = Sync_graph.build spec view in
    let from_sp = Sync_graph.dist_from sg sp in
    let to_sp = Sync_graph.dist_to sg sp in
    let e = View.find_exn view at in
    interval_of_dists spec
      ~lt:(System_spec.q_of_ticks e.Event.lt)
      ~d_sp_p:(from_sp at) ~d_p_sp:(to_sp at)

let estimates_at_proc spec view p =
  match source_point spec view with
  | None ->
    List.map (fun (e : Event.t) -> (e.id, Interval.full)) (View.events_of view p)
  | Some sp ->
    let sg = Sync_graph.build spec view in
    let from_sp = Sync_graph.dist_from sg sp in
    let to_sp = Sync_graph.dist_to sg sp in
    List.map
      (fun (e : Event.t) ->
        ( e.id,
          interval_of_dists spec ~lt:(System_spec.q_of_ticks e.lt)
            ~d_sp_p:(from_sp e.id)
            ~d_p_sp:(to_sp e.id) ))
      (View.events_of view p)

let all_pairs spec view =
  let sg = Sync_graph.build spec view in
  let d = Floyd_warshall.apsp (Sync_graph.graph sg) in
  fun src dst -> d.(Sync_graph.node_of sg src).(Sync_graph.node_of sg dst)
