type algo_summary = {
  samples : int;
  contained : int;
  finite : int;
  mean_width : float;
  max_width : float;
  final_widths : float array;
}

type node_summary = {
  peak_live : int;
  peak_history : int;
  relaxations : int;
  events_processed : int;
  events_reported : int;
}

type result = {
  rt_end : Q.t;
  messages_sent : int;
  messages_lost : int;
  events_total : int;
  payload_events_total : int;
  payload_events_max : int;
  payload_bytes_total : int;
  per_algo : (string * algo_summary) list;
  per_node : node_summary array;
  series : (float * (string * float) list) list;
  validation_failures : int option;
  soundness_failures : int;
}

(* ------------------------------------------------------------------ *)

(* The engine proper: a discrete-event scheduler over three seams — the
   transport (link behaviour), the node runtimes (algorithm stacks), and
   the trace sink (all counting).  It owns the agenda, the traffic
   patterns, and the time series; every other number in [result] is an
   aggregate of the event stream, accumulated by an internal [Metrics]
   sink teed with the scenario's. *)

type app = Request | Response | Token | Chat

type sim_event =
  | Deliver of {
      msg : int;
      src : Event.proc;
      dst : Event.proc;
      env : Node_rt.envelope;
      app : app;
      sent_at : Q.t; (* send real time, for the in-flight sever check *)
    }
  | Send of {
      src : Event.proc;
      dst : Event.proc;
      app : app;
      msg : int;
      verdict : Transport.decision;
    }  (* a send waiting for [src]'s next whole tick *)
  | Lost_notify of { msg : int }
  | Link_heal of { u : Event.proc; v : Event.proc }
  | Poll of { p : Event.proc }
  | Gossip_tick
  | Token_send of { p : Event.proc }
  | Burst_check of { p : Event.proc }
  | Script_send of { src : Event.proc; dst : Event.proc }
  | Fault_ev of Fault.Injection.event

(* One checkpoint slot per node: Fault.Store files when the scenario
   names a directory, an in-memory cell otherwise (same restore path,
   no disk in property tests). *)
type ckpt_store = { save : string -> unit; load : unit -> string option }

type verdict = Acked of int | Lost_v of int (* msg ids *)

type fault_rt = {
  down : bool array;
  stores : ckpt_store array;
  policies : Fault.Policy.t array;
  (* receives processed since the node's last checkpoint: their acks are
     withheld until a checkpoint makes the receive durable (write-ahead;
     an acked message may be garbage-collected by its sender) *)
  unacked : (int * Event.proc) list array; (* msg, sender *)
  (* verdicts whose target was down when they fired, replayed on revive *)
  queued : verdict list array;
  mutable partitions : (Q.t * int list) list; (* heal time, island *)
}

type state = {
  scenario : Scenario.t;
  rng : Rng.t;
  nodes : Node_rt.t array;
  frt : fault_rt option;
  (* dynamic-link state (edge churn), keyed by normalized undirected
     link: when the link heals, and when it was last cut.  Kept apart
     from [frt] because link cuts touch no node state — a churn-only
     scenario needs no checkpointing machinery. *)
  cuts : (Event.proc * Event.proc, Q.t) Hashtbl.t; (* link -> heal time *)
  last_cut : (Event.proc * Event.proc, Q.t) Hashtbl.t;
  transport : Transport.t;
  metrics : Metrics.t;
  trace : Trace.sink; (* metrics ∪ the scenario's sink *)
  agenda : sim_event Heap.t;
  mutable now : Q.t;
  mutable next_msg : int;
  mutable series : (float * (string * float) list) list; (* newest first *)
  mutable series_n : int;
  mutable series_stride : int;
  mutable series_tick : int;
}

let algo_names st =
  "optimal" :: List.map Baseline.name st.scenario.Scenario.baselines

let lt_now st node = Node_rt.lt_at node ~rt:st.now
let now_f st = Q.to_float st.now

let float_width i =
  match Interval.width i with
  | Ext.Fin w -> Q.to_float w
  | Ext.Inf -> infinity

let record_sample st (node : Node_rt.t) =
  let ests = Node_rt.estimates node ~lt:(lt_now st node) in
  let t = now_f st in
  List.iter
    (fun (algo, interval) ->
      Trace.emit st.trace
        (Trace.Estimate
           {
             t;
             node = node.Node_rt.proc;
             algo;
             width = float_width interval;
             contained = Interval.mem st.now interval;
           }))
    ests;
  (* subsampled time series *)
  st.series_tick <- st.series_tick + 1;
  if st.series_tick mod st.series_stride = 0 then begin
    st.series <-
      (t, List.map (fun (n, i) -> (n, float_width i)) ests) :: st.series;
    st.series_n <- st.series_n + 1;
    if st.series_n > st.scenario.Scenario.series_cap then begin
      (* decimate: keep every other sample, double the stride *)
      let rec every_other = function
        | a :: _ :: rest -> a :: every_other rest
        | rest -> rest
      in
      st.series <- every_other st.series;
      st.series_n <- (st.series_n + 1) / 2;
      st.series_stride <- st.series_stride * 2
    end
  end

let validate st (node : Node_rt.t) =
  if st.scenario.Scenario.validate then
    match Node_rt.validate node with
    | None -> ()
    | Some ok ->
      Trace.emit st.trace
        (Trace.Validation { t = now_f st; node = node.Node_rt.proc; ok })

(* ------------------------------------------------------------------ *)

let is_down st p =
  match st.frt with None -> false | Some f -> f.down.(p)

(* trace a loss now; the Section 3.3 oracle rules on it at [detect_at],
   [loss_detect] from now unless the transport said otherwise *)
let declare_lost ?detect_at st msg =
  let at =
    Option.value detect_at
      ~default:(Q.add st.now st.scenario.Scenario.loss_detect)
  in
  Trace.emit st.trace (Trace.Lost { t = now_f st; msg });
  Heap.push st.agenda ~at (Lost_notify { msg })

(* Write-ahead checkpoint of node [p]: persist its CSA, then release the
   acknowledgements withheld since the last checkpoint — only now are
   the corresponding receives durable, so only now may their senders
   garbage-collect against them.  Acks whose sender is down are queued
   and replayed when it revives. *)
let checkpoint st p =
  match st.frt with
  | None -> ()
  | Some f ->
    let prof = st.scenario.Scenario.prof in
    let t0 = Prof.start prof in
    let blob = Csa.snapshot st.nodes.(p).Node_rt.csa in
    f.stores.(p).save blob;
    Prof.stop prof "checkpoint_write" t0;
    Trace.emit st.trace
      (Trace.Checkpoint
         { t = now_f st; node = p; bytes = String.length blob });
    Fault.Policy.flushed f.policies.(p);
    let acks = List.rev f.unacked.(p) in
    f.unacked.(p) <- [];
    List.iter
      (fun (msg, sender) ->
        if f.down.(sender) then
          f.queued.(sender) <- Acked msg :: f.queued.(sender)
        else Csa.on_msg_delivered st.nodes.(sender).Node_rt.csa ~msg)
      acks

let link_key u v = if u <= v then (u, v) else (v, u)

let link_down st ~src ~dst =
  match Hashtbl.find_opt st.cuts (link_key src dst) with
  | Some heal -> Q.compare heal st.now > 0
  | None -> false

(* Was the link cut at any point since [sent_at]?  A message in flight
   across a cut is severed even if the link healed again before the
   would-be arrival. *)
let severed st ~src ~dst ~sent_at =
  match Hashtbl.find_opt st.last_cut (link_key src dst) with
  | Some cut -> Q.compare cut sent_at >= 0
  | None -> false

let partitioned st ~src ~dst =
  match st.frt with
  | None -> false
  | Some f ->
    f.partitions <-
      List.filter (fun (heal, _) -> Q.compare heal st.now > 0) f.partitions;
    List.exists
      (fun (_, island) -> List.mem src island <> List.mem dst island)
      f.partitions

(* The CSA-visible half of a send, on a whole tick of [src]'s clock:
   the payload, the write-ahead checkpoint, the trace, and the agenda
   entry for the transport's verdict. *)
let emit_send st ~src ~dst ~app ~msg verdict =
  if is_down st src then
    (* crashed while the send waited for its tick: it never left *)
    ()
  else begin
    let node = st.nodes.(src) in
    let lt = lt_now st node in
    let env, n_events = Node_rt.prepare_send node ~dst ~msg ~lt in
    (* the payload that just left carries src's own events: they must be
       durable before anything downstream can depend on them *)
    if st.frt <> None then checkpoint st src;
    Trace.emit st.trace
      (Trace.Send
         {
           t = now_f st;
           src;
           dst;
           msg;
           events = n_events;
           bytes = String.length env.Node_rt.wire;
         });
    (* a partition or a cut link overrides the transport verdict but
       never skips it: the random stream stays aligned with an
       unperturbed run *)
    let verdict =
      if partitioned st ~src ~dst || link_down st ~src ~dst then
        Transport.Lost
          { detect_at = Q.add st.now st.scenario.Scenario.loss_detect }
      else verdict
    in
    match verdict with
    | Transport.Lost { detect_at } -> declare_lost ~detect_at st msg
    | Transport.Deliver_at at ->
      Heap.push st.agenda ~at
        (Deliver { msg; src; dst; env; app; sent_at = st.now })
  end

(* [src] sends at its first whole tick at or after now: at once when
   its clock shows a whole tick, otherwise from the agenda less than a
   tick later.  The transport's draws happen here either way, so they
   come in the same order as without alignment; [seq] is the 1-based
   send attempt number. *)
let send st ~src ~dst ~app =
  if not (is_down st src) then begin
    let msg = st.next_msg in
    st.next_msg <- msg + 1;
    let at = Clock.tick_at_or_after st.nodes.(src).Node_rt.clock st.now in
    let verdict =
      Transport.send st.transport ~now:at ~seq:(msg + 1) ~src ~dst
    in
    if Q.equal at st.now then emit_send st ~src ~dst ~app ~msg verdict
    else Heap.push st.agenda ~at (Send { src; dst; app; msg; verdict })
  end

let deliver st ~msg ~src ~dst ~env ~app ~sent_at =
  if severed st ~src ~dst ~sent_at || is_down st dst then
    (* the link was cut under a message in flight, or the datagram
       reached a dead host (crash-as-loss).  It must NOT be silently
       dropped — the loss oracle reports it like any other lost message,
       or the sender would wait on a verdict forever and CSA's Section
       3.3 bookkeeping would leak a pending message (soundness is
       indifferent, liveness is not). *)
    declare_lost st msg
  else begin
    let node = st.nodes.(dst) in
    let lt = lt_now st node in
    match Node_rt.receive node ~src ~msg ~lt env with
    | exception History.Not_causally_closed _
      when Scenario.lossy st.scenario ->
      (* In lossy mode the sender's frontier advances optimistically at
         send time (see History), so a payload can presuppose an earlier
         message that was in fact lost and not yet ruled on.  Such a
         payload is not integrable; the receiver discards it — exactly
         what [Session] does over UDP — and the loss oracle reports this
         message lost too, so the sender rolls back and re-reports. *)
      declare_lost st msg
    | () ->
    Trace.emit st.trace (Trace.Receive { t = now_f st; src; dst; msg });
    (match st.frt with
    | Some f ->
      (* withhold the ack until a checkpoint covers this receive *)
      f.unacked.(dst) <- (msg, src) :: f.unacked.(dst);
      if Fault.Policy.note_receive f.policies.(dst) then checkpoint st dst
    | None ->
      if Scenario.lossy st.scenario then
        Csa.on_msg_delivered st.nodes.(src).Node_rt.csa ~msg);
    validate st node;
    record_sample st node;
    (* application behaviour *)
    match app with
    | Request -> send st ~src:dst ~dst:src ~app:Response
    | Token ->
      let gap =
        match st.scenario.Scenario.traffic with
        | Scenario.Ring_token { gap } -> gap
        | _ -> Q.one
      in
      Heap.push st.agenda ~at:(Q.add st.now gap) (Token_send { p = dst })
    | Response | Chat -> ()
  end

let lost_notify st ~msg =
  Array.iter
    (fun (node : Node_rt.t) ->
      let p = node.Node_rt.proc in
      match st.frt with
      | Some f when f.down.(p) -> f.queued.(p) <- Lost_v msg :: f.queued.(p)
      | _ -> Csa.on_msg_lost node.Node_rt.csa ~msg)
    st.nodes

let crash st p =
  match st.frt with
  | None -> ()
  | Some f ->
    if not f.down.(p) then begin
      f.down.(p) <- true;
      Trace.emit st.trace (Trace.Crash { t = now_f st; node = p });
      (* receives processed but never checkpointed die with the node:
         their senders must roll back and re-report (the restored state
         predates them, and write-ahead means they were never
         externalized, so the rollback is invisible to everyone else) *)
      let unacked = List.rev f.unacked.(p) in
      f.unacked.(p) <- [];
      Fault.Policy.flushed f.policies.(p);
      List.iter (fun (msg, _) -> declare_lost st msg) unacked
    end

let restart st p =
  match st.frt with
  | None -> ()
  | Some f ->
    if f.down.(p) then begin
      let blob =
        match f.stores.(p).load () with
        | Some b -> b
        | None ->
          (* unreachable: every node is checkpointed at boot *)
          failwith "Engine: restart without a checkpoint"
      in
      let old = st.nodes.(p) in
      let csa =
        Csa.restore ~validate:st.scenario.Scenario.validate_oracle
          ~sink:st.trace ~prof:st.scenario.Scenario.prof
          st.scenario.Scenario.spec blob
      in
      st.nodes.(p) <-
        Node_rt.revive st.scenario ~clock:old.Node_rt.clock
          ~parents:old.Node_rt.parents ~csa ~now:st.now p;
      f.down.(p) <- false;
      Trace.emit st.trace (Trace.Recover { t = now_f st; node = p });
      (* verdicts that fired while the node was down *)
      let q = List.rev f.queued.(p) in
      f.queued.(p) <- [];
      List.iter
        (function
          | Acked msg -> Csa.on_msg_delivered csa ~msg
          | Lost_v msg -> Csa.on_msg_lost csa ~msg)
        q
    end

let fault_ev st (ev : Fault.Injection.event) =
  match ev with
  | Fault.Injection.Crash { node; _ } | Fault.Injection.Leave { node; _ } ->
    crash st node
  | Fault.Injection.Restart { node; _ } | Fault.Injection.Join { node; _ } ->
    (* the node boots on a whole tick of its clock *)
    let at = Clock.tick_at_or_after st.nodes.(node).Node_rt.clock st.now in
    if Q.equal at st.now then restart st node
    else Heap.push st.agenda ~at (Fault_ev ev)
  | Fault.Injection.Partition { heal; island; _ } -> (
    match st.frt with
    | None -> ()
    | Some f -> f.partitions <- (heal, island) :: f.partitions)
  | Fault.Injection.Link_cut { heal; u; v; _ } ->
    let key = link_key u v in
    Hashtbl.replace st.cuts key heal;
    Hashtbl.replace st.last_cut key st.now;
    Trace.emit st.trace (Trace.Link_down { t = now_f st; u; v });
    Heap.push st.agenda ~at:heal (Link_heal { u; v })

let link_heal st ~u ~v =
  let key = link_key u v in
  match Hashtbl.find_opt st.cuts key with
  | Some heal when Q.compare heal st.now <= 0 ->
    Hashtbl.remove st.cuts key;
    Trace.emit st.trace (Trace.Link_up { t = now_f st; u; v })
  | _ ->
    (* a later overlapping cut re-armed the link; its own heal event
       will close it *)
    ()

let schedule_local st node ~after_lt ev =
  (* fire when the node's clock shows (now_lt + after_lt), rounded up
     to a whole tick *)
  let target_lt = Clock.ceil_tick (Q.add (lt_now st node) after_lt) in
  let rt = Clock.rt_of_lt node.Node_rt.clock target_lt in
  Heap.push st.agenda ~at:(Q.max rt st.now) ev

let poll st ~p =
  let node = st.nodes.(p) in
  List.iter
    (fun parent -> send st ~src:p ~dst:parent ~app:Request)
    node.Node_rt.parents;
  match st.scenario.Scenario.traffic with
  | Scenario.Ntp_poll { period } ->
    schedule_local st node ~after_lt:period (Poll { p })
  | _ -> ()

let gossip_tick st =
  let spec = st.scenario.Scenario.spec in
  let n = System_spec.n spec in
  let candidates =
    List.filter (fun p -> System_spec.neighbors spec p <> []) (List.init n Fun.id)
  in
  (match candidates with
  | [] -> ()
  | _ ->
    let src = Rng.pick st.rng candidates in
    let dst = Rng.pick st.rng (System_spec.neighbors spec src) in
    send st ~src ~dst ~app:Chat);
  match st.scenario.Scenario.traffic with
  | Scenario.Gossip { mean_gap } ->
    let half = Q.div_int mean_gap 2 in
    let gap = Rng.q_between st.rng half (Q.add mean_gap half) in
    Heap.push st.agenda ~at:(Q.add st.now gap) Gossip_tick
  | _ -> ()

let token_send st ~p =
  let spec = st.scenario.Scenario.spec in
  let n = System_spec.n spec in
  if is_down st p then begin
    (* the token is not lost with the node: it re-fires once the holder
       revives (otherwise a single crash would silence the ring forever) *)
    let gap =
      match st.scenario.Scenario.traffic with
      | Scenario.Ring_token { gap } -> gap
      | _ -> Q.one
    in
    Heap.push st.agenda ~at:(Q.add st.now gap) (Token_send { p })
  end
  else
    let dst = (p + 1) mod n in
    if System_spec.transit spec p dst <> None then
      send st ~src:p ~dst ~app:Token

let burst_check st ~p =
  let node = st.nodes.(p) in
  match st.scenario.Scenario.traffic with
  | Scenario.Burst { check_period; width_target } ->
    let lt = lt_now st node in
    (* Cristian's probes are driven by its own width (DESIGN §13) *)
    let width =
      Interval.width
        (match
           List.find_map
             (function Baseline.Cristian_st a -> Some a | _ -> None)
             node.Node_rt.baselines
         with
        | Some a -> Cristian.estimate_at a ~lt
        | None -> Csa.estimate_at node.Node_rt.csa ~lt)
    in
    let loose = Ext.lt (Ext.Fin width_target) width in
    if loose then begin
      (match node.Node_rt.parents with
      | parent :: _ -> send st ~src:p ~dst:parent ~app:Request
      | [] -> ());
      (* rapid retry while out of tolerance *)
      schedule_local st node ~after_lt:(Q.div_int check_period 10)
        (Burst_check { p })
    end
    else schedule_local st node ~after_lt:check_period (Burst_check { p })
  | _ -> ()

(* ------------------------------------------------------------------ *)

(* the spec's undirected links, each once *)
let links spec =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun v -> if u < v then Some (u, v) else None)
        (System_spec.neighbors spec u))
    (List.init (System_spec.n spec) Fun.id)

let init_nodes (scenario : Scenario.t) rng sink =
  let links = links scenario.Scenario.spec in
  Array.init (System_spec.n scenario.Scenario.spec) (fun p ->
      Node_rt.create scenario ~rng ~links ~sink p)

let bootstrap st =
  let n = Array.length st.nodes in
  match st.scenario.Scenario.traffic with
  | Scenario.Ntp_poll _ ->
    (* stagger initial polls to avoid a thundering herd *)
    Array.iter
      (fun (node : Node_rt.t) ->
        if node.Node_rt.parents <> [] then begin
          let jitter = Rng.q_between st.rng Q.zero Q.one in
          Heap.push st.agenda
            ~at:(Clock.tick_at_or_after node.Node_rt.clock jitter)
            (Poll { p = node.Node_rt.proc })
        end)
      st.nodes
  | Scenario.Gossip _ -> Heap.push st.agenda ~at:Q.zero Gossip_tick
  | Scenario.Ring_token _ -> Heap.push st.agenda ~at:Q.zero (Token_send { p = 0 })
  | Scenario.Burst _ ->
    Array.iter
      (fun (node : Node_rt.t) ->
        if
          node.Node_rt.proc <> System_spec.source st.scenario.Scenario.spec
          && n > 1
        then begin
          let jitter = Rng.q_between st.rng Q.zero Q.one in
          Heap.push st.agenda
            ~at:(Clock.tick_at_or_after node.Node_rt.clock jitter)
            (Burst_check { p = node.Node_rt.proc })
        end)
      st.nodes
  | Scenario.Script { sends } ->
    List.iter
      (fun (at, src, dst) -> Heap.push st.agenda ~at (Script_send { src; dst }))
      sends

let run_nodes (scenario : Scenario.t) =
  (* compile edge churn into Link_cut fault events up front: the
     schedule is drawn from the scenario seed alone, so a churn run is
     reproducible and every downstream consumer (node boot, lossy-mode
     detection, the agenda) sees one merged fault list *)
  let scenario =
    match scenario.Scenario.churn with
    | None -> scenario
    | Some { Scenario.cuts; min_down; max_down } ->
      let churn_faults =
        Fault.Chaos.link_churn ~seed:scenario.Scenario.seed
          ~links:(links scenario.Scenario.spec)
          ~duration:scenario.Scenario.duration ~cuts ?min_down ?max_down ()
      in
      {
        scenario with
        Scenario.faults =
          Fault.Injection.by_time (scenario.Scenario.faults @ churn_faults);
      }
  in
  if scenario.Scenario.faults <> [] && scenario.Scenario.validate then
    invalid_arg
      "Engine: validate (full-view mirror) cannot be combined with faults";
  let rng = Rng.create scenario.Scenario.seed in
  let metrics = Metrics.create () in
  let trace = Trace.tee (Metrics.sink metrics) scenario.Scenario.trace in
  let nodes = init_nodes scenario rng trace in
  (* link cuts touch no node state: only node-level faults (and
     partitions, whose bookkeeping rides the same record) need the
     checkpoint/recovery runtime *)
  let node_faults =
    List.filter
      (function Fault.Injection.Link_cut _ -> false | _ -> true)
      scenario.Scenario.faults
  in
  let frt =
    if node_faults = [] then None
    else begin
      let n = Array.length nodes in
      let stores =
        match scenario.Scenario.checkpoint_dir with
        | Some dir ->
          Array.init n (fun p ->
              let s = Fault.Store.create ~dir ~node:p in
              {
                save = Fault.Store.save s;
                load =
                  (fun () ->
                    match Fault.Store.load_result s with
                    | Ok b -> b
                    | Error m -> failwith ("Engine: " ^ m));
              })
        | None ->
          Array.init n (fun _ ->
              let cell = ref None in
              { save = (fun b -> cell := Some b); load = (fun () -> !cell) })
      in
      Some
        {
          down = Array.make n false;
          stores;
          policies =
            Array.init n (fun _ ->
                Fault.Policy.make scenario.Scenario.checkpoint);
          unacked = Array.make n [];
          queued = Array.make n [];
          partitions = [];
        }
    end
  in
  let transport =
    Transport.create scenario.Scenario.spec
      ~clocks:(Array.map (fun (node : Node_rt.t) -> node.Node_rt.clock) nodes)
      ~rng ~delay:scenario.Scenario.delay
      ~loss_prob:scenario.Scenario.loss_prob
      ~detect_delay:scenario.Scenario.loss_detect
  in
  let st =
    {
      scenario;
      rng;
      nodes;
      frt;
      cuts = Hashtbl.create 8;
      last_cut = Hashtbl.create 8;
      transport;
      metrics;
      trace;
      agenda = Heap.create ();
      now = Q.zero;
      next_msg = 0;
      series = [];
      series_n = 0;
      series_stride = 1;
      series_tick = 0;
    }
  in
  (match st.frt with
  | None -> ()
  | Some f ->
    (* boot checkpoint for every node: a restart must always find a
       blob — a node that has participated can never reboot amnesiac
       (it would re-issue event sequence numbers its peers already
       bound to different events) *)
    Array.iter (fun (node : Node_rt.t) -> checkpoint st node.Node_rt.proc) st.nodes;
    List.iter
      (fun ev ->
        (* a node whose first fault is a Join is absent from time 0 *)
        match ev with
        | Fault.Injection.Join { node; _ }
          when not (List.exists
                      (fun e ->
                        Fault.Injection.node e = Some node
                        && Q.compare (Fault.Injection.at e)
                             (Fault.Injection.at ev)
                           < 0)
                      scenario.Scenario.faults) ->
          f.down.(node) <- true
        | _ -> ())
      scenario.Scenario.faults);
  List.iter
    (fun ev -> Heap.push st.agenda ~at:(Fault.Injection.at ev) (Fault_ev ev))
    scenario.Scenario.faults;
  bootstrap st;
  let continue = ref true in
  while !continue do
    match Heap.pop st.agenda with
    | None -> continue := false
    | Some (at, _) when Q.(at > scenario.Scenario.duration) -> continue := false
    | Some (at, ev) -> (
      st.now <- at;
      match ev with
      | Deliver { msg; src; dst; env; app; sent_at } ->
        deliver st ~msg ~src ~dst ~env ~app ~sent_at
      | Send { src; dst; app; msg; verdict } ->
        emit_send st ~src ~dst ~app ~msg verdict
      | Lost_notify { msg } -> lost_notify st ~msg
      | Link_heal { u; v } -> link_heal st ~u ~v
      | Poll { p } -> poll st ~p
      | Gossip_tick -> gossip_tick st
      | Token_send { p } -> token_send st ~p
      | Burst_check { p } -> burst_check st ~p
      | Script_send { src; dst } -> send st ~src ~dst ~app:Chat
      | Fault_ev ev -> fault_ev st ev)
  done;
  st.now <- scenario.Scenario.duration;
  let per_algo =
    List.map
      (fun name ->
        let s = Metrics.algo_stats st.metrics name in
        let final_widths =
          Array.map
            (fun node ->
              let interval =
                List.assoc name (Node_rt.estimates node ~lt:(lt_now st node))
              in
              float_width interval)
            st.nodes
        in
        ( name,
          {
            samples = s.Metrics.samples;
            contained = s.Metrics.contained;
            finite = s.Metrics.finite;
            mean_width = s.Metrics.mean_width;
            max_width = s.Metrics.max_width;
            final_widths;
          } ))
      (algo_names st)
  in
  let per_node =
    Array.map
      (fun (node : Node_rt.t) ->
        let csa = node.Node_rt.csa in
        {
          peak_live = Csa.peak_live_count csa;
          peak_history = Csa.peak_history_size csa;
          relaxations = Csa.oracle_relaxations csa;
          events_processed = Csa.events_processed csa;
          events_reported = Csa.events_reported csa;
        })
      st.nodes
  in
  ( {
    rt_end = st.now;
    messages_sent = Metrics.sends st.metrics;
    messages_lost = Metrics.losses st.metrics;
    events_total =
      Array.fold_left
        (fun acc (node : Node_rt.t) ->
          acc + Csa.events_processed node.Node_rt.csa)
        0 st.nodes;
    payload_events_total = Metrics.payload_events_total st.metrics;
    payload_events_max = Metrics.payload_events_max st.metrics;
    payload_bytes_total = Metrics.payload_bytes_total st.metrics;
    per_algo;
    per_node;
    series = List.rev st.series;
    validation_failures =
      (if scenario.Scenario.validate then
         Some (Metrics.validation_failures st.metrics)
       else None);
    soundness_failures = Metrics.soundness_failures st.metrics;
  },
    st.nodes )

let run scenario = fst (run_nodes scenario)

let pp_result fmt r =
  Format.fprintf fmt "@[<v>rt_end=%s messages=%d lost=%d events=%d@,"
    (Q.to_string r.rt_end) r.messages_sent r.messages_lost r.events_total;
  List.iter
    (fun (name, a) ->
      Format.fprintf fmt
        "%-10s samples=%d contained=%d finite=%d mean_width=%.6f max_width=%.6f@,"
        name a.samples a.contained a.finite a.mean_width a.max_width)
    r.per_algo;
  Format.fprintf fmt "@]"
