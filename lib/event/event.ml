
type proc = int
type id = { proc : proc; seq : int }

type kind =
  | Init
  | Internal
  | Send of { msg : int; dst : proc }
  | Recv of { msg : int; src : proc; send : id }

type t = { id : id; lt : int; kind : kind }

let id_compare a b =
  let c = compare a.proc b.proc in
  if c <> 0 then c else compare a.seq b.seq

let id_equal a b = a.proc = b.proc && a.seq = b.seq
let id_hash a = (a.proc * 1_000_003) + a.seq
let pp_id fmt a = Format.fprintf fmt "p%d#%d" a.proc a.seq
let loc e = e.id.proc
let prev_id e = if e.id.seq = 0 then None else Some { e.id with seq = e.id.seq - 1 }
let is_send e = match e.kind with Send _ -> true | _ -> false
let is_recv e = match e.kind with Recv _ -> true | _ -> false
let sent_msg e = match e.kind with Send { msg; _ } -> Some msg | _ -> None

let pp fmt e =
  let kind_str =
    match e.kind with
    | Init -> "init"
    | Internal -> "internal"
    | Send { msg; dst } -> Printf.sprintf "send(m%d->p%d)" msg dst
    | Recv { msg; src; send } ->
      Printf.sprintf "recv(m%d<-p%d#%d)" msg src send.seq
  in
  Format.fprintf fmt "%a@%d %s" pp_id e.id e.lt kind_str

module Id_key = struct
  type t = id

  let equal = id_equal
  let hash = id_hash
  let compare = id_compare
end

module Id_tbl = Hashtbl.Make (Id_key)
module Id_set = Set.Make (Id_key)
