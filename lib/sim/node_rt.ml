type envelope = { wire : string; baseline_wires : Baseline.wire list }

type t = {
  proc : Event.proc;
  clock : Clock.t;
  csa : Csa.t;
  mirror : Mirror.t option;
  baselines : Baseline.instance list;
  parents : Event.proc list;
  prof : Prof.t;
}

(* the part of booting shared by a fresh start and a revival: every
   baseline starts from scratch at the clock's current reading *)
let boot (scenario : Scenario.t) ~clock ~csa ~mirror ~parents ~lt0 p =
  {
    proc = p;
    clock;
    csa;
    mirror;
    baselines =
      List.map
        (fun b -> Baseline.create b scenario.Scenario.spec ~me:p ~lt0)
        scenario.Scenario.baselines;
    parents;
    prof = scenario.Scenario.prof;
  }

let create (scenario : Scenario.t) ~rng ~links ~sink p =
  let spec = scenario.Scenario.spec in
  let n = System_spec.n spec in
  let lt0 =
    if p = System_spec.source spec then Q.zero
    else Clock.floor_tick (Rng.q_between rng Q.zero scenario.Scenario.max_offset)
  in
  let clock =
    Clock.create ~drift:(System_spec.drift spec p)
      ~policy:scenario.Scenario.clock_policy
      ~segment:scenario.Scenario.clock_segment ~lt0 ~rng:(Rng.split rng)
  in
  let csa =
    Csa.create
      ~lossy:(Scenario.lossy scenario)
      ~validate:scenario.Scenario.validate_oracle ~sink
      ~prof:scenario.Scenario.prof spec ~me:p ~lt0
  in
  let mirror =
    if scenario.Scenario.validate then Some (Mirror.create spec ~me:p ~lt0)
    else None
  in
  boot scenario ~clock ~csa ~mirror
    ~parents:
      (Topology.parents_toward_source ~n ~links
         ~source:(System_spec.source spec) p)
    ~lt0 p

(* the clock survives a crash (hardware keeps ticking); the restored CSA
   carries everything durable.  Baselines have no snapshot, which is
   exactly the comparison the fault scenarios are after.  No mirror: the
   full-view mirror cannot survive a crash, and the engine rejects
   validate scenarios with faults. *)
let revive scenario ~clock ~parents ~csa ~now p =
  boot scenario ~clock ~csa ~mirror:None ~parents
    ~lt0:(Clock.lt_of_rt clock now) p

let lt_at t ~rt = Clock.lt_of_rt t.clock rt

let prepare_send t ~dst ~msg ~lt =
  let payload = Csa.send t.csa ~dst ~msg ~lt in
  Option.iter (fun m -> Mirror.send m ~payload) t.mirror;
  let baseline_wires =
    List.map (fun b -> Baseline.on_send b ~dst ~msg ~lt ~payload) t.baselines
  in
  let t0 = Prof.start t.prof in
  let wire = Codec.encode payload in
  Prof.stop t.prof "codec_encode" t0;
  ({ wire; baseline_wires }, Payload.size payload)

let receive t ~src ~msg ~lt env =
  (* messages travel in their encoded form; decode exactly once here *)
  let t0 = Prof.start t.prof in
  let payload = Codec.decode env.wire in
  Prof.stop t.prof "codec_decode" t0;
  Csa.receive t.csa ~msg ~lt payload;
  Option.iter (fun m -> Mirror.receive m ~msg ~lt ~payload) t.mirror;
  List.iter2
    (fun b w -> Baseline.on_recv b ~src ~msg ~lt ~payload w)
    t.baselines env.baseline_wires

let estimates t ~lt =
  ("optimal", Csa.estimate_at t.csa ~lt)
  :: List.map
       (fun b -> (Baseline.instance_name b, Baseline.estimate_at b ~lt))
       t.baselines

let validate t =
  Option.map
    (fun mirror ->
      let expected =
        Reference.estimate (Csa.spec t.csa) (Mirror.view mirror)
          ~at:(Mirror.last_id mirror)
      in
      Interval.equal expected (Csa.estimate t.csa))
    t.mirror
