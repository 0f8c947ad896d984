(* Bench-side loopback fleet: one hub and K Session+Loop clients on one
   deterministic Loopback fabric.

   The wiring is a copy of [Swarm.run_loopback]'s (same spec, fabric,
   per-client clock draws and driver order, so the same seed gives the
   same execution; the suite's tests check it), with every driver
   wrapped so the suite can time the hub apart from the clients and the
   fabric.  The NET under both the hub and the client loops is a
   counting and timing wrapper around [Loopback.Net].  The run advances
   one virtual second per [run_window], sampling every client at the
   window's end exactly as [Swarm]'s once-a-second script does. *)

(* receives that returned a datagram; cumulative, read as deltas *)
let hits = ref 0

module Net = struct
  include Loopback.Net

  let send ep dst bytes =
    let id = Ledger.enter "loopback.send" in
    Loopback.Net.send ep dst bytes;
    Ledger.leave id

  let recv ep ~buf ~timeout =
    let id = Ledger.enter "loopback.recv" in
    let r = Loopback.Net.recv ep ~buf ~timeout in
    Ledger.leave id;
    if r <> None then incr hits;
    r
end

module H = Hub.Make (Net)
module L = Loop.Make (Net)

type params = {
  clients : int;
  seed : int;
  loss : float;
  heartbeat : Q.t;
  hi_ms : int;
  drift_ppm : int;
  max_offset_ms : int;
}

type client = {
  id : int;
  ep : Loopback.endpoint;
  session : Session.t;
  loop : L.t;
  mutable samples : int;
  mutable uncontained : int;
  mutable late_infinite : int;  (* samples past [converge_by], infinite width *)
  mutable last_width : float;
}

type t = {
  fab : Loopback.fabric;
  hub : H.t;
  clients : client array;
  metrics : Metrics.t option;  (* only on traced fleets *)
  mutable drivers : Loopback.driver list;
  mutable vt : int;  (* virtual seconds driven so far *)
  mutable converge_by : int;  (* virtual second every client must be finite by *)
  mutable collect : bool;  (* keep hub service times in this window *)
  mutable service : float list;  (* hub polls that handled >= 1 datagram *)
  mutable widths : float list;  (* sample widths at t >= 2 s *)
  mutable hub_alloc : float;  (* bytes allocated inside traced hub polls *)
  mutable client_alloc : float;
}

(* The one place the suite builds a hub: cohort 1, so every client has
   a private hub session.  A Hub API change touches only this. *)
let make_hub ~sink ~prof ~net ~spec ~cfg =
  match
    H.create ~sink ~net ~spec ~cohort_size:1
      ~mk_session:(fun ~idx:_ ~members ->
        Ok (Session.create ~sink ~prof ~peers:members cfg ~now:(Net.now net)))
      ()
  with
  | Ok h -> h
  | Error m -> failwith ("Fleet.make_hub: " ^ m)

let poll_hub f () =
  let h0 = !hits in
  let t0 = Ledger.now () in
  let id = Ledger.open_at "hub.poll" t0 in
  let a0 = if id >= 0 then Gc.allocated_bytes () else 0. in
  H.poll f.hub ~max_wait:Q.zero;
  if id >= 0 then f.hub_alloc <- f.hub_alloc +. (Gc.allocated_bytes () -. a0);
  let t1 = Ledger.now () in
  Ledger.close_at id t1;
  if f.collect && !hits > h0 then f.service <- (t1 -. t0) :: f.service

let hub_driver f =
  {
    Loopback.poll = poll_hub f;
    next_vt =
      (fun () ->
        (* the hub runs offset 0 / rate 1: local time is virtual time *)
        let id = Ledger.enter "hub.next_deadline" in
        let d = H.next_deadline f.hub in
        Ledger.leave id;
        d);
    addr = Some 0;
  }

let client_driver f c =
  {
    Loopback.poll =
      (fun () ->
        let id = Ledger.enter "client.poll" in
        let a0 = if id >= 0 then Gc.allocated_bytes () else 0. in
        L.poll c.loop ~max_wait:Q.zero;
        if id >= 0 then
          f.client_alloc <- f.client_alloc +. (Gc.allocated_bytes () -. a0);
        Ledger.leave id);
    next_vt =
      (fun () ->
        let id = Ledger.enter "client.next_deadline" in
        let d =
          Option.map (Loopback.virtual_of_local c.ep)
            (Session.next_deadline c.session)
        in
        Ledger.leave id;
        d);
    addr = Some c.id;
  }

let create ?(traced = false) (p : params) =
  if p.clients < 1 then invalid_arg "Fleet.create: need >= 1 client";
  let metrics = if traced then Some (Metrics.create ()) else None in
  let sink =
    match metrics with Some m -> Metrics.sink m | None -> Trace.null
  in
  let prof = if traced then Ledger.prof () else Prof.null in
  let spec =
    Swarm.star_spec ~nodes:(p.clients + 1) ~drift_ppm:p.drift_ppm
      ~hi_ms:p.hi_ms
  in
  let fab =
    Loopback.fabric ~seed:p.seed ~loss:p.loss ~delay_lo:(Scenario.ms 1)
      ~delay_hi:(Scenario.ms (max 2 p.hi_ms))
      ()
  in
  let config me =
    { (Session.default_config ~me ~spec) with Session.heartbeat = p.heartbeat }
  in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let hub = make_hub ~sink ~prof ~net:hub_ep ~spec ~cfg:(config 0) in
  let rng = Rng.create (p.seed lxor 0x5157) in
  let clients =
    Array.init p.clients (fun i ->
        let id = i + 1 in
        let offset = Scenario.ms (Rng.int rng (p.max_offset_ms + 1)) in
        let ppm = Rng.int rng ((2 * p.drift_ppm) + 1) - p.drift_ppm in
        let rate = Q.add Q.one (Q.of_ints ppm 1_000_000) in
        let ep = Loopback.endpoint fab ~id ~offset ~rate () in
        let session = Session.create ~sink ~prof (config id) ~now:(Net.now ep) in
        let loop = L.create ~net:ep ~session () in
        L.learn loop ~peer:0 0;
        {
          id;
          ep;
          session;
          loop;
          samples = 0;
          uncontained = 0;
          late_infinite = 0;
          last_width = infinity;
        })
  in
  let f =
    {
      fab;
      hub;
      clients;
      metrics;
      drivers = [];
      vt = 0;
      converge_by = 2;
      collect = false;
      service = [];
      widths = [];
      hub_alloc = 0.;
      client_alloc = 0.;
    }
  in
  f.drivers <-
    hub_driver f :: Array.to_list (Array.map (client_driver f) clients);
  f

let sample_all f () =
  let id = Ledger.enter "harness.sample" in
  let truth = Loopback.vnow f.fab in
  let steady = Q.(truth >= of_int 2) in
  let late = Q.(truth >= of_int f.converge_by) in
  Array.iter
    (fun c ->
      let now = Net.now c.ep in
      let s = Ledger.enter "session.sample" in
      let est = Session.sample c.session ~now ~truth () in
      Ledger.leave s;
      let w =
        match Interval.width est with
        | Ext.Fin w -> Q.to_float w
        | Ext.Inf -> infinity
      in
      c.samples <- c.samples + 1;
      if not (Interval.mem truth est) then c.uncontained <- c.uncontained + 1;
      if late && not (Float.is_finite w) then
        c.late_infinite <- c.late_infinite + 1;
      if steady then f.widths <- w :: f.widths;
      c.last_width <- w)
    f.clients;
  Ledger.leave id

(* Drive the fabric one virtual second, sampling at its end. *)
let run_window f =
  let until = Q.of_int (f.vt + 1) in
  let id = Ledger.enter "loopback.run_drivers" in
  Loopback.run_drivers f.fab ~drivers:f.drivers ~until
    ~script:[ (until, sample_all f) ]
    ();
  Ledger.leave id;
  f.vt <- f.vt + 1

let delivered f = Loopback.delivered f.fab
let dropped f = Loopback.dropped f.fab
let hub_stats f = H.stats f.hub

let sessions f =
  List.init (H.cohorts f.hub) (H.session f.hub)
  @ Array.to_list (Array.map (fun c -> c.session) f.clients)

let sum_sessions f g =
  List.fold_left (fun acc s -> acc + g (Session.csa s)) 0 (sessions f)

let max_sessions f g =
  List.fold_left (fun acc s -> max acc (g (Session.csa s))) 0 (sessions f)

let relaxations f = sum_sessions f Csa.oracle_relaxations
let peak_live f = max_sessions f Csa.peak_live_count
let peak_history f = max_sessions f Csa.peak_history_size
let established c = Session.established c.session 0
