(* --- Definition 2.1 in exact rationals ----------------------------------

   The reference computes every weight from the declared bounds in [Q],
   independently of the lattice cells {!Edges} hands the AGDP, so a
   validated run checks that int arithmetic rather than sharing it. *)

type edge = { src : Event.id; dst : Event.id; w : Q.t }

let lt_q (e : Event.t) = System_spec.q_of_ticks e.lt

let proc_edges spec ~(prev : Event.t) ~(next : Event.t) =
  let d = System_spec.drift spec (Event.loc prev) in
  let elapsed = Q.sub (lt_q next) (lt_q prev) in
  (* B(next,prev) = rmax·ℓ  ⇒ w(next,prev) = (rmax − 1)·ℓ
     B(prev,next) = −rmin·ℓ ⇒ w(prev,next) = (1 − rmin)·ℓ *)
  let open Drift in
  [
    { src = next.id; dst = prev.id; w = Q.mul (Q.sub d.rmax Q.one) elapsed };
    { src = prev.id; dst = next.id; w = Q.mul (Q.sub Q.one d.rmin) elapsed };
  ]

let msg_edges spec ~(send : Event.t) ~(recv : Event.t) =
  let tr = System_spec.transit_exn spec (Event.loc send) (Event.loc recv) in
  let vd = Q.sub (lt_q recv) (lt_q send) in
  (* B(send,recv) = −lo ⇒ w(send,recv) = vd − lo
     B(recv,send) = hi  ⇒ w(recv,send) = hi − vd (only when hi finite) *)
  let open Transit in
  let forward = { src = send.id; dst = recv.id; w = Q.sub vd tr.lo } in
  match tr.hi with
  | Ext.Inf -> [ forward ]
  | Ext.Fin hi -> [ forward; { src = recv.id; dst = send.id; w = Q.sub hi vd } ]

let of_view spec view =
  View.fold view ~init:[] ~f:(fun acc e ->
      let proc_part =
        match Event.prev_id e with
        | None -> []
        | Some pid -> proc_edges spec ~prev:(View.find_exn view pid) ~next:e
      in
      let msg_part =
        match e.kind with
        | Event.Recv { send; _ } ->
          msg_edges spec ~send:(View.find_exn view send) ~recv:e
        | Event.Init | Event.Internal | Event.Send _ -> []
      in
      List.rev_append (proc_part @ msg_part) acc)
  |> List.rev

type t = { graph : Digraph.t; index : int Event.Id_tbl.t }

let build spec view =
  let index = Event.Id_tbl.create (View.size view) in
  View.iter view (fun e ->
      Event.Id_tbl.replace index e.id (Event.Id_tbl.length index));
  let graph = Digraph.create (View.size view) in
  List.iter
    (fun { src; dst; w } ->
      Digraph.add_edge graph
        (Event.Id_tbl.find index src)
        (Event.Id_tbl.find index dst)
        w)
    (of_view spec view);
  { graph; index }

let graph t = t.graph

let node_of t id =
  match Event.Id_tbl.find_opt t.index id with
  | Some i -> i
  | None ->
    invalid_arg (Format.asprintf "Sync_graph.node_of: %a" Event.pp_id id)

let dist_from t src =
  let d = Bellman_ford.sssp t.graph (node_of t src) in
  fun id -> d.(node_of t id)

let dist_to t dst =
  let d = Bellman_ford.sssp (Digraph.reverse t.graph) (node_of t dst) in
  fun id -> d.(node_of t id)
