type t =
  | Driftfree of { window : Q.t }
  | Ntp
  | Cristian of { rtt : Q.t }
  | Ftsp
  | Marzullo

let name = function
  | Driftfree _ -> Driftfree.name
  | Ntp -> Ntp.name
  | Cristian _ -> Cristian.name
  | Ftsp -> Ftsp.name
  | Marzullo -> Marzullo.name

let all =
  [
    Driftfree { window = Q.of_int 30 };
    Ntp;
    Cristian { rtt = Q.of_ints 50 1_000 };
    Ftsp;
    Marzullo;
  ]

let of_name s = List.find_opt (fun b -> name b = s) all

let of_names names =
  match
    List.filter (fun a -> a <> "optimal" && of_name a = None) names
  with
  | [] -> Ok (List.filter (fun b -> List.mem (name b) names) all)
  | bad ->
    Error
      (Printf.sprintf "unknown algorithm(s) %s (known: %s)"
         (String.concat ", " bad)
         (String.concat "|" ("optimal" :: List.map name all)))

type instance =
  | Driftfree_st of Driftfree.t
  | Ntp_st of Ntp.t
  | Cristian_st of Cristian.t
  | Ftsp_st of Ftsp.t
  | Marzullo_st of Marzullo.t

type wire =
  | Driftfree_w
  | Ntp_w of Ntp.wire
  | Cristian_w of Cristian.wire
  | Ftsp_w of Ftsp.wire
  | Marzullo_w of Marzullo.wire

(* The baselines compute on rationals: a reading in ticks becomes one
   here, once (Driftfree, which keeps events, converts its own). *)
let q = System_spec.q_of_ticks

let create b spec ~me ~lt0 =
  match b with
  | Driftfree { window } -> Driftfree_st (Driftfree.create ~window spec ~me ~lt0)
  | Ntp -> Ntp_st (Ntp.create spec ~me ~lt0:(q lt0))
  | Cristian { rtt } ->
    Cristian_st (Cristian.create ~rtt_threshold:rtt spec ~me ~lt0:(q lt0))
  | Ftsp -> Ftsp_st (Ftsp.create spec ~me ~lt0:(q lt0))
  | Marzullo -> Marzullo_st (Marzullo.create spec ~me ~lt0:(q lt0))

let instance_name = function
  | Driftfree_st _ -> Driftfree.name
  | Ntp_st _ -> Ntp.name
  | Cristian_st _ -> Cristian.name
  | Ftsp_st _ -> Ftsp.name
  | Marzullo_st _ -> Marzullo.name

let on_send i ~dst ~msg ~lt ~payload =
  match i with
  | Driftfree_st a ->
    Driftfree.on_send a ~payload;
    Driftfree_w
  | Ntp_st a -> Ntp_w (Ntp.on_send a ~dst ~msg ~lt:(q lt))
  | Cristian_st a -> Cristian_w (Cristian.on_send a ~dst ~msg ~lt:(q lt))
  | Ftsp_st a -> Ftsp_w (Ftsp.on_send a ~dst ~msg ~lt:(q lt))
  | Marzullo_st a -> Marzullo_w (Marzullo.on_send a ~dst ~msg ~lt:(q lt))

let on_recv i ~src ~msg ~lt ~payload w =
  match i, w with
  | Driftfree_st a, Driftfree_w -> Driftfree.on_recv a ~msg ~lt ~payload
  | Ntp_st a, Ntp_w w -> Ntp.on_recv a ~src ~msg ~lt:(q lt) w
  | Cristian_st a, Cristian_w w -> Cristian.on_recv a ~src ~msg ~lt:(q lt) w
  | Ftsp_st a, Ftsp_w w -> Ftsp.on_recv a ~src ~msg ~lt:(q lt) w
  | Marzullo_st a, Marzullo_w w -> Marzullo.on_recv a ~src ~msg ~lt:(q lt) w
  | _ -> invalid_arg "Baseline.on_recv: wire from another baseline"

let estimate_at i ~lt =
  match i with
  | Driftfree_st a -> Driftfree.estimate_at a ~lt:(q lt)
  | Ntp_st a -> Ntp.estimate_at a ~lt:(q lt)
  | Cristian_st a -> Cristian.estimate_at a ~lt:(q lt)
  | Ftsp_st a -> Ftsp.estimate_at a ~lt:(q lt)
  | Marzullo_st a -> Marzullo.estimate_at a ~lt:(q lt)
