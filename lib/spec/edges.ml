type edge = { src : Event.id; dst : Event.id; w : int }

let max_cell = System_spec.max_cell

let out_of_range what =
  invalid_arg (what ^ ": a weight leaves the lattice's ±(2^61 − 1)/D range")

let checked what v =
  if v > max_cell || v < -max_cell then out_of_range what else v

(* [a ± b] and [a·b] of two in-range ints: a sum or difference cannot
   wrap (its magnitude is at most 2^62 − 2), and a product is refused
   before it could *)
let cell_add what a b = checked what (a + b)
let cell_sub what a b = checked what (a - b)

let cell_mul what a b =
  if a <> 0 && abs b > max_cell / abs a then out_of_range what;
  a * b

(* [b − a] for two readings, each checked first *)
let ticks_between what a b = cell_sub what (checked what b) (checked what a)

let proc_edges spec ~(prev : Event.t) ~(next : Event.t) =
  let what = "Edges.proc_edges" in
  let p = Event.loc prev in
  if p <> Event.loc next then
    invalid_arg "Edges.proc_edges: different processors";
  (match Event.prev_id next with
  | Some id when Event.id_equal id prev.id -> ()
  | _ -> invalid_arg "Edges.proc_edges: events not consecutive");
  let elapsed = ticks_between what prev.lt next.lt in
  if elapsed < 0 then invalid_arg "Edges.proc_edges: local time regression";
  (* B(next,prev) = rmax·ℓ  ⇒ w(next,prev) = (rmax − 1)·ℓ
     B(prev,next) = −rmin·ℓ ⇒ w(prev,next) = (1 − rmin)·ℓ *)
  [
    { src = next.id; dst = prev.id;
      w = cell_mul what elapsed (System_spec.up_cells spec p) };
    { src = prev.id; dst = next.id;
      w = cell_mul what elapsed (System_spec.down_cells spec p) };
  ]

let msg_edges spec ~(send : Event.t) ~(recv : Event.t) =
  let what = "Edges.msg_edges" in
  let msg_send, msg_recv, src_proc =
    match send.kind, recv.kind with
    | Event.Send { msg = ms; _ }, Event.Recv { msg = mr; send = sid; src } ->
      if not (Event.id_equal sid send.id) then
        invalid_arg "Edges.msg_edges: receive does not reference this send";
      (ms, mr, src)
    | _ -> invalid_arg "Edges.msg_edges: wrong event kinds"
  in
  if msg_send <> msg_recv then invalid_arg "Edges.msg_edges: message mismatch";
  if src_proc <> Event.loc send then
    invalid_arg "Edges.msg_edges: sender mismatch";
  let { System_spec.lo_cells; hi_cells } =
    System_spec.link_cells_exn spec (Event.loc send) (Event.loc recv)
  in
  (* virt_del(recv, send), in cells *)
  let vd =
    cell_mul what (ticks_between what send.lt recv.lt)
      (System_spec.cells_per_tick spec)
  in
  (* B(send,recv) = −lo ⇒ w(send,recv) = −lo − (LT(send) − LT(recv))
                                           = vd − lo
     B(recv,send) = hi  ⇒ w(recv,send) = hi − vd (only when hi finite) *)
  let forward =
    { src = send.id; dst = recv.id; w = cell_sub what vd lo_cells }
  in
  match hi_cells with
  | None -> [ forward ]
  | Some hi ->
    [ forward; { src = recv.id; dst = send.id; w = cell_sub what hi vd } ]
