type event =
  | Send of {
      t : float;
      src : int;
      dst : int;
      msg : int;
      events : int;
      bytes : int;
    }
  | Receive of { t : float; src : int; dst : int; msg : int }
  | Lost of { t : float; msg : int }
  | Estimate of {
      t : float;
      node : int;
      algo : string;
      width : float;
      contained : bool;
    }
  | Validation of { t : float; node : int; ok : bool }
  | Liveness of { node : int; live : int }
  | Oracle_insert of { key : int; live : int }
  | Oracle_gc of { key : int; live : int }
  | Net_tx of { t : float; dst : int; kind : string; bytes : int }
  | Net_rx of { t : float; src : int; kind : string; bytes : int }
  | Net_drop of { t : float; reason : string }
  | Peer_up of { t : float; peer : int }
  | Peer_down of { t : float; peer : int }
  | Retransmit of { t : float; peer : int; msg : int }
  | Checkpoint of { t : float; node : int; bytes : int }
  | Crash of { t : float; node : int }
  | Recover of { t : float; node : int }
  | Link_down of { t : float; u : int; v : int }
  | Link_up of { t : float; u : int; v : int }
  | Hub_cohort of {
      t : float;
      cohort : int;
      clients : int;
      established : int;
      frames : int;  (* cumulative counters at emission time *)
      batched : int;
      coalesced : int;
    }
  | Protocol_violation of {
      t : float;
      node : int;
      rule : string;
      detail : string;
    }
  | Span of { name : string; dur : float }

type sink = event -> unit

let emit sink ev = sink ev
let null _ = ()

let tee a b ev =
  a ev;
  b ev

let callback f = f

(* --- the event table ------------------------------------------------------

   One row per constructor: its JSONL label, its flight tag and its
   ordered, typed fields, plus the builder that reassembles it.  Every
   codec (JSONL here, the binary dump in Flight) walks this table, so an
   event's on-disk shape is written down exactly once. *)

type _ ty =
  | Int : int ty
  | Str : string ty
  | Bool : bool ty
  | Float : float -> float ty

(* heterogeneous lists indexed by a row's builder type *)
module F = struct
  type _ t = [] : event t | ( :: ) : (string * 'a ty) * 'b t -> ('a -> 'b) t
end

module V = struct
  type _ t = [] : event t | ( :: ) : 'a * 'b t -> ('a -> 'b) t
end

type 'f row = { label : string; tag : int; fields : 'f F.t; make : 'f }
type any_row = Row : 'f row -> any_row
type described = Ev : 'f row * 'f V.t -> described

let row label tag fields make = { label; tag; fields; make }
let int k = (k, Int)
let str k = (k, Str)
let bool k = (k, Bool)

(* JSON null reads back as the non-finite value the producer plausibly
   wrote: [nan] for timestamps and durations (a producer with no clock),
   [infinity] for interval widths (an unbounded estimate) *)
let t = ("t", Float Float.nan)

let send =
  row "send" 0 F.[ t; int "src"; int "dst"; int "msg"; int "events"; int "bytes" ]
    (fun t src dst msg events bytes -> Send { t; src; dst; msg; events; bytes })

let receive =
  row "receive" 1 F.[ t; int "src"; int "dst"; int "msg" ]
    (fun t src dst msg -> Receive { t; src; dst; msg })

let lost = row "lost" 2 F.[ t; int "msg" ] (fun t msg -> Lost { t; msg })

let estimate =
  row "estimate" 3
    F.[ t; int "node"; str "algo"; ("width", Float Float.infinity); bool "contained" ]
    (fun t node algo width contained ->
      Estimate { t; node; algo; width; contained })

let validation =
  row "validation" 4 F.[ t; int "node"; bool "ok" ]
    (fun t node ok -> Validation { t; node; ok })

let liveness =
  row "liveness" 5 F.[ int "node"; int "live" ]
    (fun node live -> Liveness { node; live })

let oracle_insert =
  row "oracle_insert" 6 F.[ int "key"; int "live" ]
    (fun key live -> Oracle_insert { key; live })

let oracle_gc =
  row "oracle_gc" 7 F.[ int "key"; int "live" ]
    (fun key live -> Oracle_gc { key; live })

let net_tx =
  row "net_tx" 8 F.[ t; int "dst"; str "kind"; int "bytes" ]
    (fun t dst kind bytes -> Net_tx { t; dst; kind; bytes })

let net_rx =
  row "net_rx" 9 F.[ t; int "src"; str "kind"; int "bytes" ]
    (fun t src kind bytes -> Net_rx { t; src; kind; bytes })

let net_drop =
  row "net_drop" 10 F.[ t; str "reason" ]
    (fun t reason -> Net_drop { t; reason })

let peer_up =
  row "peer_up" 11 F.[ t; int "peer" ] (fun t peer -> Peer_up { t; peer })

let peer_down =
  row "peer_down" 12 F.[ t; int "peer" ] (fun t peer -> Peer_down { t; peer })

let retransmit =
  row "retransmit" 13 F.[ t; int "peer"; int "msg" ]
    (fun t peer msg -> Retransmit { t; peer; msg })

let checkpoint =
  row "checkpoint" 14 F.[ t; int "node"; int "bytes" ]
    (fun t node bytes -> Checkpoint { t; node; bytes })

let crash = row "crash" 15 F.[ t; int "node" ] (fun t node -> Crash { t; node })

let recover =
  row "recover" 16 F.[ t; int "node" ] (fun t node -> Recover { t; node })

let link_down =
  row "link_down" 17 F.[ t; int "u"; int "v" ]
    (fun t u v -> Link_down { t; u; v })

let link_up =
  row "link_up" 18 F.[ t; int "u"; int "v" ] (fun t u v -> Link_up { t; u; v })

let hub_cohort =
  row "hub_cohort" 19
    F.[ t; int "cohort"; int "clients"; int "established"; int "frames";
        int "batched"; int "coalesced" ]
    (fun t cohort clients established frames batched coalesced ->
      Hub_cohort { t; cohort; clients; established; frames; batched; coalesced })

let protocol_violation =
  row "protocol_violation" 20 F.[ t; int "node"; str "rule"; str "detail" ]
    (fun t node rule detail -> Protocol_violation { t; node; rule; detail })

let span =
  row "span" 21 F.[ str "name"; ("dur", Float Float.nan) ]
    (fun name dur -> Span { name; dur })

(* indexed by tag *)
let rows =
  [|
    Row send; Row receive; Row lost; Row estimate; Row validation;
    Row liveness; Row oracle_insert; Row oracle_gc; Row net_tx; Row net_rx;
    Row net_drop; Row peer_up; Row peer_down; Row retransmit; Row checkpoint;
    Row crash; Row recover; Row link_down; Row link_up; Row hub_cohort;
    Row protocol_violation; Row span;
  |]

let () =
  Array.iteri
    (fun i (Row r) -> if r.tag <> i then invalid_arg ("Trace: row tag " ^ r.label))
    rows

let describe = function
  | Send { t; src; dst; msg; events; bytes } ->
    Ev (send, V.[ t; src; dst; msg; events; bytes ])
  | Receive { t; src; dst; msg } -> Ev (receive, V.[ t; src; dst; msg ])
  | Lost { t; msg } -> Ev (lost, V.[ t; msg ])
  | Estimate { t; node; algo; width; contained } ->
    Ev (estimate, V.[ t; node; algo; width; contained ])
  | Validation { t; node; ok } -> Ev (validation, V.[ t; node; ok ])
  | Liveness { node; live } -> Ev (liveness, V.[ node; live ])
  | Oracle_insert { key; live } -> Ev (oracle_insert, V.[ key; live ])
  | Oracle_gc { key; live } -> Ev (oracle_gc, V.[ key; live ])
  | Net_tx { t; dst; kind; bytes } -> Ev (net_tx, V.[ t; dst; kind; bytes ])
  | Net_rx { t; src; kind; bytes } -> Ev (net_rx, V.[ t; src; kind; bytes ])
  | Net_drop { t; reason } -> Ev (net_drop, V.[ t; reason ])
  | Peer_up { t; peer } -> Ev (peer_up, V.[ t; peer ])
  | Peer_down { t; peer } -> Ev (peer_down, V.[ t; peer ])
  | Retransmit { t; peer; msg } -> Ev (retransmit, V.[ t; peer; msg ])
  | Checkpoint { t; node; bytes } -> Ev (checkpoint, V.[ t; node; bytes ])
  | Crash { t; node } -> Ev (crash, V.[ t; node ])
  | Recover { t; node } -> Ev (recover, V.[ t; node ])
  | Link_down { t; u; v } -> Ev (link_down, V.[ t; u; v ])
  | Link_up { t; u; v } -> Ev (link_up, V.[ t; u; v ])
  | Hub_cohort { t; cohort; clients; established; frames; batched; coalesced }
    ->
    Ev (hub_cohort, V.[ t; cohort; clients; established; frames; batched; coalesced ])
  | Protocol_violation { t; node; rule; detail } ->
    Ev (protocol_violation, V.[ t; node; rule; detail ])
  | Span { name; dur } -> Ev (span, V.[ name; dur ])

(* --- generic walkers ------------------------------------------------------ *)

let label ev = match describe ev with Ev (r, _) -> r.label
let tag ev = match describe ev with Ev (r, _) -> r.tag

type visitor = { field : 'a. string -> 'a ty -> 'a -> unit }

let walk v (Ev (r, vs)) =
  let rec go : type f. f F.t -> f V.t -> unit =
   fun fs vs ->
    match (fs, vs) with
    | F.[], V.[] -> ()
    | F.((k, ty) :: fs), V.(x :: vs) ->
      v.field k ty x;
      go fs vs
  in
  go r.fields vs

let iter_fields v ev = walk v (describe ev)

type source = { read : 'a. string -> 'a ty -> 'a }

let build src (Row r) =
  let rec go : type f. f F.t -> f -> event =
   fun fs make ->
    match fs with
    | F.[] -> make
    | F.((k, ty) :: fs) -> go fs (make (src.read k ty))
  in
  go r.fields r.make

let of_tag n src =
  if n < 0 || n >= Array.length rows then None else Some (build src rows.(n))

let json_of_event ev =
  let module J = Json_out in
  let fields = ref [] in
  let field (type a) k (ty : a ty) (x : a) =
    let j : J.t =
      match ty with
      | Int -> J.Int x
      | Str -> J.Str x
      | Bool -> J.Bool x
      | Float _ -> J.Float x
    in
    fields := (k, j) :: !fields
  in
  match describe ev with
  | Ev (r, _) as d ->
    walk { field } d;
    J.Obj (("event", J.Str r.label) :: List.rev !fields)

(* Inverse of [json_of_event], for the offline analyzer. *)
let event_of_json (j : Json_out.t) : (event, string) result =
  let module J = Json_out in
  match j with
  | J.Obj fields -> (
    let read (type a) k (ty : a ty) : a =
      let fail what = failwith (Printf.sprintf "field %S: expected %s" k what) in
      match (ty, List.assoc_opt k fields) with
      | _, None -> failwith (Printf.sprintf "missing field %S" k)
      | Int, Some (J.Int n) -> n
      | Int, Some _ -> fail "integer"
      | Str, Some (J.Str s) -> s
      | Str, Some _ -> fail "string"
      | Bool, Some (J.Bool b) -> b
      | Bool, Some _ -> fail "bool"
      | Float _, Some (J.Float f) -> f
      | Float _, Some (J.Int n) -> float_of_int n
      | Float null, Some J.Null -> null
      | Float _, Some _ -> fail "number"
    in
    try
      let lbl = read "event" Str in
      match Array.find_opt (fun (Row r) -> r.label = lbl) rows with
      | None -> Error (Printf.sprintf "unknown event label %S" lbl)
      | Some row -> Ok (build { read } row)
    with Failure m -> Error m)
  | _ -> Error "expected a JSON object"

(* The trace is the flight recorder for crash post-mortems: a kill -9
   must not eat the tail, so every line is flushed rather than left to
   out_channel buffering, and written with a single [output_string] so a
   crash can truncate the final line but never interleave two. *)
let jsonl oc ev =
  output_string oc (Json_out.to_line (json_of_event ev) ^ "\n");
  flush oc
