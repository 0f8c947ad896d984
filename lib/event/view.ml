
type t = {
  n_procs : int;
  tbl : Event.t Event.Id_tbl.t;
  by_proc : Event.t list ref array; (* newest first *)
  last : Event.t option array;
  recv_of : (int, Event.id) Hashtbl.t; (* msg id -> receive event id *)
  mutable order : Event.t list; (* insertion order, newest first *)
  mutable size : int;
}

let create ~n_procs =
  {
    n_procs;
    tbl = Event.Id_tbl.create 64;
    by_proc = Array.init n_procs (fun _ -> ref []);
    last = Array.make n_procs None;
    recv_of = Hashtbl.create 16;
    order = [];
    size = 0;
  }

let n_procs t = t.n_procs
let mem t id = Event.Id_tbl.mem t.tbl id
let find t id = Event.Id_tbl.find_opt t.tbl id

let find_exn t id =
  match find t id with
  | Some e -> e
  | None ->
    invalid_arg
      (Format.asprintf "View.find_exn: %a not in view" Event.pp_id id)

let last_of t p = t.last.(p)
let events_of t p = List.rev !(t.by_proc.(p))
let size t = t.size
let iter t f = List.iter f (List.rev t.order)
let fold t ~init ~f = List.fold_left f init (List.rev t.order)
let to_list t = List.rev t.order
let recv_of_msg t msg = Hashtbl.find_opt t.recv_of msg

let add t (e : Event.t) =
  let p = Event.loc e in
  if p < 0 || p >= t.n_procs then invalid_arg "View.add: processor out of range";
  if mem t e.id then
    invalid_arg (Format.asprintf "View.add: duplicate %a" Event.pp_id e.id);
  (match t.last.(p) with
  | None ->
    if e.id.seq <> 0 then
      invalid_arg
        (Format.asprintf "View.add: missing predecessor of %a" Event.pp_id e.id);
    if e.kind <> Event.Init then
      invalid_arg "View.add: first event of a processor must be Init"
  | Some prev ->
    if e.id.seq <> prev.id.seq + 1 then
      invalid_arg
        (Format.asprintf "View.add: out-of-order insert of %a" Event.pp_id e.id);
    if e.lt < prev.lt then
      invalid_arg
        (Format.asprintf "View.add: local time regression at %a" Event.pp_id e.id));
  (match e.kind with
  | Event.Recv { send; _ } ->
    if not (mem t send) then
      invalid_arg
        (Format.asprintf "View.add: receive %a before its send" Event.pp_id e.id)
  | Event.Init | Event.Internal | Event.Send _ -> ());
  Event.Id_tbl.add t.tbl e.id e;
  t.by_proc.(p) := e :: !(t.by_proc.(p));
  t.last.(p) <- Some e;
  (match e.kind with
  | Event.Recv { msg; _ } -> Hashtbl.replace t.recv_of msg e.id
  | _ -> ());
  t.order <- e :: t.order;
  t.size <- t.size + 1

let is_live t id =
  let e = find_exn t id in
  let is_last =
    match t.last.(Event.loc e) with
    | Some last -> Event.id_equal last.id id
    | None -> false
  in
  let pending_send =
    match e.kind with
    | Event.Send { msg; _ } -> recv_of_msg t msg = None
    | _ -> false
  in
  is_last || pending_send

let live_points t =
  fold t ~init:[] ~f:(fun acc e -> if is_live t e.id then e :: acc else acc)
  |> List.rev

let deps_of (e : Event.t) =
  let prev = match Event.prev_id e with None -> [] | Some p -> [ p ] in
  match e.kind with
  | Event.Recv { send; _ } -> send :: prev
  | Event.Init | Event.Internal | Event.Send _ -> prev

(* Repeated-sweep topological sort over the batch, treating events already
   in the view as satisfied dependencies.  Batches are small (bounded by
   the history-buffer size, Lemma 3.3), so the quadratic worst case is
   acceptable and keeps the code obviously correct. *)
let topo_sort_batch t batch =
  let dedup = Event.Id_tbl.create (List.length batch) in
  let batch =
    List.filter
      (fun (e : Event.t) ->
        if Event.Id_tbl.mem dedup e.id then false
        else begin
          Event.Id_tbl.replace dedup e.id ();
          true
        end)
      batch
  in
  (* A dependency that is neither known nor in the batch is a protocol
     violation: the resulting view would not be causally closed. *)
  List.iter
    (fun (e : Event.t) ->
      List.iter
        (fun dep ->
          if not (mem t dep) && not (Event.Id_tbl.mem dedup dep) then
            invalid_arg
              (Format.asprintf "View.topo_sort_batch: %a depends on unknown %a"
                 Event.pp_id e.id Event.pp_id dep))
        (deps_of e))
    batch;
  let emitted = Event.Id_tbl.create (List.length batch) in
  let satisfied dep = mem t dep || Event.Id_tbl.mem emitted dep in
  let result = ref [] in
  let rec loop remaining =
    if remaining <> [] then begin
      let ready, blocked =
        List.partition
          (fun e -> List.for_all satisfied (deps_of e))
          remaining
      in
      if ready = [] then
        invalid_arg "View.topo_sort_batch: dependency cycle in batch";
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

let merge_batch t batch =
  let fresh = List.filter (fun (e : Event.t) -> not (mem t e.id)) batch in
  let sorted = topo_sort_batch t fresh in
  List.iter (add t) sorted;
  sorted
