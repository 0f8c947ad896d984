module Store = struct
  let magic = "CSCK"
  let version = 1

  type t = { dir : string; node : int; path : string; tmp : string }

  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let create ~dir ~node =
    if node < 0 then invalid_arg "Fault.Store.create: negative node id";
    mkdir_p dir;
    let base = Filename.concat dir (Printf.sprintf "node-%d.ckpt" node) in
    { dir; node; path = base; tmp = base ^ ".tmp" }

  let path t = t.path

  let encode t blob =
    let buf = Buffer.create (String.length blob + 16) in
    Buffer.add_string buf magic;
    Buffer.add_char buf (Char.chr version);
    Codec.add_varint buf t.node;
    Codec.add_varint buf (String.length blob);
    Buffer.add_string buf blob;
    Wire.add_trailer buf;
    Buffer.contents buf

  let save t blob =
    let oc = open_out_bin t.tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (encode t blob);
        flush oc);
    (* rename within one directory is atomic: a crash mid-save leaves
       either the old checkpoint or the new one, never a torn file *)
    Sys.rename t.tmp t.path

  (* Slice discipline as in [Frame.decode_sub]: checksum over the head
     in place, then a reader bounded to it — no [String.sub] copy. *)
  let decode t s =
    try
      let n = String.length s in
      if n < String.length magic + 7 then failwith "checkpoint too short";
      let bytes = Bytes.unsafe_of_string s in
      if not (Wire.trailer_ok bytes ~pos:0 ~len:n) then failwith "bad checksum";
      let r =
        Codec.reader_of_slice { Codec.bytes; pos = 0; len = n - 4 }
      in
      if Codec.read_bytes r (String.length magic) <> magic then
        failwith "bad magic";
      let v = Codec.read_byte r in
      if v <> version then
        failwith (Printf.sprintf "unsupported checkpoint version %d" v);
      let node = Codec.read_varint r in
      if node <> t.node then
        failwith
          (Printf.sprintf "checkpoint for node %d, expected %d" node t.node);
      let len = Codec.read_varint r in
      let blob = Codec.read_bytes r len in
      if not (Codec.at_end r) then failwith "trailing bytes in checkpoint";
      Ok blob
    with
    | Failure m -> Error m
    | Invalid_argument m -> Error m

  let load_result t =
    match
      if Sys.file_exists t.path then begin
        let ic = open_in_bin t.path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            Some (really_input_string ic len))
      end
      else None
    with
    | None -> Ok None
    | Some s -> (
      match decode t s with
      | Ok blob -> Ok (Some blob)
      | Error m -> Error (Printf.sprintf "%s: %s" t.path m))
    | exception Sys_error m -> Error m

  let wipe t =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ t.path; t.tmp ]
end

module Policy = struct
  type spec = [ `Sync | `Every of int ]

  type t = { every : int; mutable pending : int }

  let make = function
    | `Sync -> { every = 1; pending = 0 }
    | `Every k ->
      if k < 1 then invalid_arg "Fault.Policy.make: `Every needs k >= 1";
      { every = k; pending = 0 }

  let note_receive t =
    t.pending <- t.pending + 1;
    t.pending >= t.every

  let flushed t = t.pending <- 0
end

module Injection = struct
  type event =
    | Crash of { at : Q.t; node : int }
    | Restart of { at : Q.t; node : int }
    | Leave of { at : Q.t; node : int }
    | Join of { at : Q.t; node : int }
    | Partition of { at : Q.t; heal : Q.t; island : int list }
    | Link_cut of { at : Q.t; heal : Q.t; u : int; v : int }

  let at = function
    | Crash { at; _ }
    | Restart { at; _ }
    | Leave { at; _ }
    | Join { at; _ }
    | Partition { at; _ }
    | Link_cut { at; _ } ->
      at

  let node = function
    | Crash { node; _ } | Restart { node; _ } | Leave { node; _ }
    | Join { node; _ } ->
      Some node
    | Partition _ | Link_cut _ -> None

  let label = function
    | Crash _ -> "crash"
    | Restart _ -> "restart"
    | Leave _ -> "leave"
    | Join _ -> "join"
    | Partition _ -> "partition"
    | Link_cut _ -> "link_cut"

  let by_time evs =
    List.stable_sort (fun a b -> Q.compare (at a) (at b)) evs
end

module Chaos = struct
  let schedule ~seed ~nodes ?(protect = [ 0 ]) ~duration ?(cycles = 2)
      ?min_down ?max_down ?(partitions = 0) () =
    if nodes < 2 then invalid_arg "Fault.Chaos.schedule: need >= 2 nodes";
    if Q.sign duration <= 0 then
      invalid_arg "Fault.Chaos.schedule: non-positive duration";
    let victims =
      List.filter
        (fun p -> not (List.mem p protect))
        (List.init nodes Fun.id)
    in
    if victims = [] then
      invalid_arg "Fault.Chaos.schedule: every node is protected";
    let pct k = Q.mul duration (Q.of_ints k 100) in
    let min_down = Option.value min_down ~default:(pct 2) in
    let max_down = Option.value max_down ~default:(pct 10) in
    let rng = Rng.create seed in
    (* crashes land in the middle 10%..80% of the run so the network has
       synchronized once before the first fault and has time to
       re-converge after the last restart *)
    let windows = Hashtbl.create 8 in
    let overlaps node t0 t1 =
      List.exists
        (fun (a, b) -> Q.compare t0 b <= 0 && Q.compare a t1 <= 0)
        (Option.value (Hashtbl.find_opt windows node) ~default:[])
    in
    let events = ref [] in
    for _ = 1 to cycles do
      let node = Rng.pick rng victims in
      let t0 = Rng.q_between rng (pct 10) (pct 80) in
      let down = Rng.q_between rng min_down max_down in
      let t1 = Q.add t0 down in
      if not (overlaps node t0 t1) then begin
        Hashtbl.replace windows node
          ((t0, t1)
          :: Option.value (Hashtbl.find_opt windows node) ~default:[]);
        events :=
          Injection.Restart { at = t1; node }
          :: Injection.Crash { at = t0; node }
          :: !events
      end
    done;
    for _ = 1 to partitions do
      let at = Rng.q_between rng (pct 10) (pct 80) in
      let heal = Q.add at (Rng.q_between rng min_down max_down) in
      let island =
        List.filter (fun p -> p <> 0 && Rng.bool rng) (List.init nodes Fun.id)
      in
      if island <> [] && List.length island < nodes then
        events := Injection.Partition { at; heal; island } :: !events
    done;
    Injection.by_time !events

  let link_churn ~seed ~links ~duration ?(cuts = 4) ?min_down ?max_down
      ?(protect = []) () =
    if Q.sign duration <= 0 then
      invalid_arg "Fault.Chaos.link_churn: non-positive duration";
    let norm (u, v) = if u <= v then (u, v) else (v, u) in
    let protect = List.map norm protect in
    let victims =
      List.filter (fun l -> not (List.mem l protect)) (List.map norm links)
    in
    if victims = [] then
      invalid_arg "Fault.Chaos.link_churn: every link is protected";
    let pct k = Q.mul duration (Q.of_ints k 100) in
    let min_down = Option.value min_down ~default:(pct 2) in
    let max_down = Option.value max_down ~default:(pct 10) in
    let rng = Rng.create seed in
    (* cuts land in the middle of the run, like crash cycles: the network
       synchronizes once before the first cut and re-converges after the
       last heal.  Overlapping windows on one link are dropped, not
       stacked, so a cut's heal never races a later cut of the same
       link. *)
    let windows = Hashtbl.create 8 in
    let overlaps link t0 t1 =
      List.exists
        (fun (a, b) -> Q.compare t0 b <= 0 && Q.compare a t1 <= 0)
        (Option.value (Hashtbl.find_opt windows link) ~default:[])
    in
    let events = ref [] in
    for _ = 1 to cuts do
      let ((u, v) as link) = Rng.pick rng victims in
      let t0 = Rng.q_between rng (pct 10) (pct 80) in
      let down = Rng.q_between rng min_down max_down in
      let t1 = Q.add t0 down in
      if not (overlaps link t0 t1) then begin
        Hashtbl.replace windows link
          ((t0, t1)
          :: Option.value (Hashtbl.find_opt windows link) ~default:[]);
        events := Injection.Link_cut { at = t0; heal = t1; u; v } :: !events
      end
    done;
    Injection.by_time !events
end
