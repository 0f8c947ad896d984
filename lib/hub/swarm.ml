module Lhub = Hub.Make (Loopback.Net)
module Uhub = Hub.Make (Udp)
module Unet = Loop.Make (Udp)

type client_report = {
  id : int;
  established : bool;
  samples : int;
  finite : int;
  uncontained : int;
  last_width : float;
}

type report = {
  clients : int;
  established : int;
  converged : int;
  sound : int;
  widths : float array;
  hub : Hub.stats option;
  fabric_delivered : int;
  elapsed_wall : float;
  per_client : client_report list;
}

let star_spec ~nodes ~drift_ppm ~hi_ms =
  System_spec.uniform ~n:nodes ~source:0 ~drift:(Drift.of_ppm drift_ppm)
    ~transit:(Transit.of_q Q.zero (Scenario.ms hi_ms))
    ~links:(Topology.star nodes)

(* nearest-rank percentile over the sorted width array *)
let p_width r p =
  let n = Array.length r.widths in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    r.widths.(max 0 (min (n - 1) (rank - 1)))

type tracker = {
  cid : int;
  mutable t_samples : int;
  mutable t_finite : int;
  mutable t_uncontained : int;
  mutable t_last_width : float;
}

let fresh_tracker cid =
  { cid; t_samples = 0; t_finite = 0; t_uncontained = 0;
    t_last_width = infinity }

let track tr ~truth est =
  let w =
    match Interval.width est with
    | Ext.Fin w -> Q.to_float w
    | Ext.Inf -> infinity
  in
  tr.t_samples <- tr.t_samples + 1;
  if Float.is_finite w then tr.t_finite <- tr.t_finite + 1;
  if not (Interval.mem truth est) then
    tr.t_uncontained <- tr.t_uncontained + 1;
  tr.t_last_width <- w

let finish ~established trackers ~hub ~fabric_delivered ~elapsed_wall =
  let per_client : client_report list =
    List.map2
      (fun tr up ->
        {
          id = tr.cid;
          established = up;
          samples = tr.t_samples;
          finite = tr.t_finite;
          uncontained = tr.t_uncontained;
          last_width = tr.t_last_width;
        })
      trackers established
  in
  let widths =
    List.filter_map
      (fun c ->
        if Float.is_finite c.last_width then Some c.last_width else None)
      per_client
    |> Array.of_list
  in
  Array.sort compare widths;
  {
    clients = List.length per_client;
    established =
      List.length
        (List.filter (fun (c : client_report) -> c.established) per_client);
    converged =
      List.length
        (List.filter (fun c -> Float.is_finite c.last_width) per_client);
    sound = List.length (List.filter (fun c -> c.uncontained = 0) per_client);
    widths;
    hub;
    fabric_delivered;
    elapsed_wall;
    per_client;
  }

(* ---- deterministic loopback swarm: hub + K clients on one fabric ---- *)

let run_loopback ?(seed = 42) ?(loss = 0.) ?(cohort = 8)
    ?(duration = Q.of_int 12) ?(sample = Q.one)
    ?(heartbeat = Q.of_ints 1 2) ?(drift_ppm = 500) ?(hi_ms = 50)
    ?(max_offset_ms = 250) ?(sink = Trace.null) ?(prof = Prof.null)
    ~clients () =
  if clients < 1 then invalid_arg "Swarm.run_loopback: need >= 1 client";
  let wall0 = Unix.gettimeofday () in
  let nodes = clients + 1 in
  let spec = star_spec ~nodes ~drift_ppm ~hi_ms in
  let fab =
    Loopback.fabric ~seed ~loss ~delay_lo:(Scenario.ms 1)
      ~delay_hi:(Scenario.ms (max 2 hi_ms)) ()
  in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 =
    { (Session.default_config ~me:0 ~spec) with Session.heartbeat = heartbeat }
  in
  let hub =
    match
      Lhub.create ~sink ~prof ~net:hub_ep ~spec ~cohort_size:cohort
        ~mk_session:(fun ~idx:_ ~members ->
          Ok
            (Session.create ~sink ~peers:members cfg0
               ~now:(Loopback.Net.now hub_ep)))
        ()
    with
    | Ok h -> h
    | Error m -> failwith ("Swarm.run_loopback: " ^ m)
  in
  let rng = Rng.create (seed lxor 0x5157) in
  let clients_a =
    Array.init clients (fun i ->
        let g = i + 1 in
        let offset = Scenario.ms (Rng.int rng (max_offset_ms + 1)) in
        let ppm = Rng.int rng (2 * drift_ppm + 1) - drift_ppm in
        let rate = Q.add Q.one (Q.of_ints ppm 1_000_000) in
        let ep = Loopback.endpoint fab ~id:g ~offset ~rate () in
        let cfg =
          { (Session.default_config ~me:g ~spec) with
            Session.heartbeat = heartbeat }
        in
        let session =
          Session.create ~sink cfg ~now:(Loopback.Net.now ep)
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (ep, session, loop, fresh_tracker g))
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Lhub.poll hub ~max_wait:Q.zero);
      next_vt =
        (fun () ->
          (* the hub runs offset 0 / rate 1: local time is virtual
             time *)
          Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: (Array.to_list clients_a
       |> List.map (fun (_, _, loop, _) -> Loopback.driver_of_loop loop))
  in
  let sample_all () =
    let truth = Loopback.vnow fab in
    Array.iter
      (fun (ep, session, _, tr) ->
        let now = Loopback.Net.now ep in
        track tr ~truth (Session.sample session ~now ~truth ()))
      clients_a;
    Lhub.emit_stats hub ~now:(Loopback.Net.now hub_ep)
  in
  let script =
    let n_samples = int_of_float (Q.to_float (Q.div duration sample)) in
    List.init n_samples (fun k -> (Q.mul_int sample (k + 1), sample_all))
  in
  Loopback.run_drivers fab ~drivers ~until:duration ~script ();
  sample_all ();
  let established =
    Array.to_list clients_a
    |> List.map (fun (_, session, _, _) -> Session.established session 0)
  in
  let trackers =
    Array.to_list clients_a |> List.map (fun (_, _, _, tr) -> tr)
  in
  finish ~established trackers ~hub:(Some (Lhub.stats hub))
    ~fabric_delivered:(Loopback.delivered fab)
    ~elapsed_wall:(Unix.gettimeofday () -. wall0)

(* ---- real-UDP swarm: K in-process clients against a hub process ---- *)

let run_udp ?(seed = 42) ?(drop = 0.) ?(duration = Q.of_int 15)
    ?(sample = Q.one) ?(heartbeat = Q.of_ints 1 2) ?(drift_ppm = 500)
    ?(hi_ms = 250) ?(max_offset_ms = 250) ?(sink = Trace.null) ~nodes
    ~clients ~server_addr () =
  if clients < 1 then invalid_arg "Swarm.run_udp: need >= 1 client";
  if nodes < clients + 1 then
    invalid_arg "Swarm.run_udp: nodes must exceed the client count";
  let wall0 = Unix.gettimeofday () in
  let spec = star_spec ~nodes ~drift_ppm ~hi_ms in
  let rng = Rng.create (seed lxor 0x5157) in
  let clients_a =
    Array.init clients (fun i ->
        let g = i + 1 in
        let offset = Scenario.ms (Rng.int rng (max_offset_ms + 1)) in
        let ppm = Rng.int rng (2 * drift_ppm + 1) - drift_ppm in
        let rate = Q.add Q.one (Q.of_ints ppm 1_000_000) in
        let net = Udp.create ~offset ~rate ~drop ~seed:(seed + g) ~port:0 () in
        let cfg =
          { (Session.default_config ~me:g ~spec) with
            Session.heartbeat = heartbeat }
        in
        let session = Session.create ~sink cfg ~now:(Udp.now net) in
        let loop = Unet.create ~net ~session () in
        Unet.learn loop ~peer:0 server_addr;
        (net, session, loop, fresh_tracker g))
  in
  let start = Udp.wall () in
  let deadline = Q.add start duration in
  let next_sample = ref (Q.add start sample) in
  let rec go () =
    let now = Udp.wall () in
    if Q.(now < deadline) then begin
      Array.iter
        (fun (_, _, loop, _) -> Unet.poll loop ~max_wait:Q.zero)
        clients_a;
      if Q.(now >= !next_sample) then begin
        Array.iter
          (fun (net, session, _, tr) ->
            (* read the reference wall clock per client, right at its
               sample: one read for the whole fleet goes stale by the
               time the loop reaches the last client, and a
               milliseconds-stale truth escapes a tight interval *)
            let truth = Udp.wall () in
            track tr ~truth
              (Session.sample session ~now:(Udp.now net) ~truth ()))
          clients_a;
        next_sample := Q.add now sample
      end;
      (* the fleet shares one thread: nonblocking polls, then yield *)
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ();
  Array.iter
    (fun (net, session, loop, _) ->
      Session.stop session ~now:(Udp.now net);
      Unet.poll loop ~max_wait:Q.zero)
    clients_a;
  let established =
    Array.to_list clients_a
    |> List.map (fun (_, session, _, _) -> Session.established session 0)
  in
  let trackers =
    Array.to_list clients_a |> List.map (fun (_, _, _, tr) -> tr)
  in
  Array.iter (fun (net, _, _, _) -> Udp.close net) clients_a;
  finish ~established trackers ~hub:None ~fabric_delivered:0
    ~elapsed_wall:(Unix.gettimeofday () -. wall0)
