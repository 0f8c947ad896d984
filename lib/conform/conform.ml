(* Executable reference specification of the Session protocol as a
   transition relation over Obs.Trace events.

   The monitor folds one event at a time into an abstract protocol
   state — per-pair message-id floors, per-pair accepted-message sets,
   the global sent/lost ledgers, peer session parity, and the set of
   crashed nodes — and checks every guarded transition the spec allows
   (the rule table lives in DESIGN.md §15).  The relation is
   deliberately sound for BOTH producers of traces:

   - the simulator (run / tournament), where delivery may reorder
     messages (delay policies) and a crash kills unacked receives by
     declaring their messages lost through the Section 3.3 oracle; and
   - the socket runtime (peer / hub), including trailerless
     kill -9 victim traces and post-recovery traces whose pre-crash
     history lives in a different file.

   Rules that hold in one world but not the other (e.g. per-pair
   receive monotonicity, which real Sessions guarantee via dedup floors
   but reordering transports do not) are stated as the weaker invariant
   true in both (no message accepted twice).  A [Recover] event
   switches on the recovery exemptions: a restored node may declare
   losses for, and retransmit, messages it sent before the trace
   began, because write-ahead checkpointing guarantees they existed.

   [check] mutates the state and reports at most one violation per
   event; the state is updated even on violation (as if the event were
   accepted) so monitoring continues past the first failure. *)

type violation = { rule : string; detail : string }

type t = {
  (* per (src, dst): highest Send msg id seen (write-ahead
     checkpointing makes this floor survive crash/recovery) *)
  send_floor : (int * int, int) Hashtbl.t;
  (* per (src, dst): every msg id accepted, for the no-duplicate rule
     (reordering transports forbid a mere floor) *)
  received : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;
  sent : (int, unit) Hashtbl.t; (* all msg ids put on the wire *)
  lost : (int, unit) Hashtbl.t; (* all msg ids declared lost *)
  (* per peer: how many sessions currently hold it up.  A count, not a
     set: several sessions may share one sink (a swarm process), each
     legitimately marking the same peer up, so per-session strict
     alternation joins to counting semantics on the shared stream. *)
  peers_up : (int, int) Hashtbl.t;
  crashed : (int, unit) Hashtbl.t; (* nodes currently crashed *)
  mutable recovered : bool; (* a Recover appeared: enable exemptions *)
  suffix : bool; (* replaying a truncated tail (flight ring): lift the
                    rules that need history before the window *)
  (* per node: highest finite timestamp seen.  Keyed per node, not
     globally: a swarm shares one sink between sessions whose emulated
     clocks run at different offsets, so only each node's own clock is
     required to be monotone.  Events with no node attribution are not
     time-checked. *)
  last_t : (int, float) Hashtbl.t;
  mutable events_seen : int;
  mutable violations : int;
}

let create ?(suffix = false) () =
  {
    send_floor = Hashtbl.create 64;
    received = Hashtbl.create 64;
    sent = Hashtbl.create 1024;
    lost = Hashtbl.create 64;
    peers_up = Hashtbl.create 16;
    crashed = Hashtbl.create 8;
    recovered = false;
    suffix;
    last_t = Hashtbl.create 16;
    events_seen = 0;
    violations = 0;
  }

let events_seen t = t.events_seen
let violations t = t.violations

(* timestamp carried by the event, if any *)
let time_of : Trace.event -> float option = function
  | Send { t; _ }
  | Receive { t; _ }
  | Lost { t; _ }
  | Estimate { t; _ }
  | Validation { t; _ }
  | Net_tx { t; _ }
  | Net_rx { t; _ }
  | Net_drop { t; _ }
  | Peer_up { t; _ }
  | Peer_down { t; _ }
  | Retransmit { t; _ }
  | Checkpoint { t; _ }
  | Crash { t; _ }
  | Recover { t; _ }
  | Link_down { t; _ }
  | Link_up { t; _ }
  | Hub_cohort { t; _ }
  | Protocol_violation { t; _ } -> Some t
  | Liveness _ | Oracle_insert _ | Oracle_gc _ | Span _ -> None

(* the processor an event is attributed to, if any *)
let node_of : Trace.event -> int option = function
  | Send { src; _ } -> Some src
  | Receive { dst; _ } -> Some dst
  | Estimate { node; _ }
  | Validation { node; _ }
  | Checkpoint { node; _ }
  | Crash { node; _ }
  | Recover { node; _ }
  | Protocol_violation { node; _ } -> Some node
  | Liveness { node; _ } -> Some node
  | _ -> None

let state_summary t =
  Printf.sprintf
    "events=%d sent=%d lost=%d pairs=%d up=%d crashed=%d recovered=%b"
    t.events_seen (Hashtbl.length t.sent) (Hashtbl.length t.lost)
    (Hashtbl.length t.send_floor)
    (Hashtbl.length t.peers_up)
    (Hashtbl.length t.crashed)
    t.recovered

(* One rule fires per event: the first guard that fails.  Rule slugs
   are stable identifiers (documented in DESIGN.md §15) so scripts and
   dashboards can key on them. *)
let check t (ev : Trace.event) : violation option =
  t.events_seen <- t.events_seen + 1;
  let fail rule detail =
    t.violations <- t.violations + 1;
    Some { rule; detail }
  in
  let monotone_violation =
    match (time_of ev, node_of ev) with
    | Some ts, Some n when Float.is_finite ts -> (
      match Hashtbl.find_opt t.last_t n with
      | Some hw when ts < hw ->
        Some
          (Printf.sprintf
             "node %d: timestamp %g precedes its own high-water %g" n ts hw)
      | _ ->
        Hashtbl.replace t.last_t n ts;
        None)
    | _ -> None
  in
  let crashed_violation =
    match ev with
    | Crash _ | Recover _ -> None
    | _ -> (
      match node_of ev with
      | Some n when Hashtbl.mem t.crashed n ->
        Some (Printf.sprintf "node %d acted while crashed" n)
      | _ -> None)
  in
  let structural =
    match ev with
    | Trace.Send { src; dst; msg; _ } ->
      Hashtbl.replace t.sent msg ();
      (match Hashtbl.find_opt t.send_floor (src, dst) with
      | Some f when msg <= f ->
        fail "send_id_monotone"
          (Printf.sprintf
             "msg %d from %d to %d not above the pair's floor %d (allocator \
              regressed: a write-ahead checkpoint must cover every \
              externalized id)"
             msg src dst f)
      | _ ->
        Hashtbl.replace t.send_floor (src, dst) msg;
        None)
    | Trace.Receive { src; dst; msg; _ } ->
      let seen =
        match Hashtbl.find_opt t.received (src, dst) with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 64 in
          Hashtbl.replace t.received (src, dst) h;
          h
      in
      if Hashtbl.mem seen msg then
        fail "receive_unique"
          (Printf.sprintf
             "msg %d from %d accepted twice by %d (dedup floor must be \
              monotone)"
             msg src dst)
      else begin
        Hashtbl.replace seen msg ();
        None
      end
    | Trace.Lost { msg; _ } ->
      (* no "lost twice" rule: hub cohorts run disjoint allocators whose
         id sequences alias (ids have no src attached), so two cohorts
         may legitimately each lose a msg with the same id *)
      Hashtbl.replace t.lost msg ();
      if Hashtbl.mem t.sent msg || t.recovered || t.suffix then None
      else
        fail "lost_requires_send"
          (Printf.sprintf
             "msg %d declared lost but never sent in this trace (and no \
              recovery happened)"
             msg)
    | Trace.Retransmit { msg; peer; _ } ->
      if Hashtbl.mem t.lost msg || t.suffix then None
      else
        fail "retransmit_requires_lost"
          (Printf.sprintf
             "msg %d to peer %d retransmitted without a loss verdict \
              (Section 3.3: re-report only after the oracle says lost)"
             msg peer)
    | Trace.Estimate { node; algo; contained; width; _ } ->
      if algo = "optimal" && not contained then
        fail "optimal_uncontained"
          (Printf.sprintf
             "node %d: optimal estimate (width %g) excluded the true source \
              time"
             node width)
      else None
    | Trace.Peer_up { peer; _ } ->
      Hashtbl.replace t.peers_up peer
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.peers_up peer));
      None
    | Trace.Peer_down { peer; _ } -> (
      match Hashtbl.find_opt t.peers_up peer with
      | Some n when n > 0 ->
        if n = 1 then Hashtbl.remove t.peers_up peer
        else Hashtbl.replace t.peers_up peer (n - 1);
        None
      | _ ->
        if t.suffix then None (* the Peer_up may predate the window *)
        else
          fail "peer_down_not_up"
            (Printf.sprintf "peer %d went down but was never up" peer))
    | Trace.Crash { node; _ } ->
      if Hashtbl.mem t.crashed node then
        fail "crash_crashed" (Printf.sprintf "node %d crashed twice" node)
      else begin
        Hashtbl.replace t.crashed node ();
        None
      end
    | Trace.Recover { node; _ } ->
      Hashtbl.remove t.crashed node;
      t.recovered <- true;
      None
    | _ -> None
  in
  match structural with
  | Some v -> Some v
  | None -> (
    match crashed_violation with
    | Some detail ->
      t.violations <- t.violations + 1;
      Some { rule = "crashed_node_active"; detail }
    | None -> (
      match monotone_violation with
      | Some detail ->
        t.violations <- t.violations + 1;
        Some { rule = "time_monotone"; detail }
      | None -> None))

(* ---------------------------------------------------------- offline *)

type report = {
  index : int; (* 0-based position in the replayed event list *)
  event : Trace.event;
  violation : violation;
  state : string; (* state_summary at the violating step *)
}

let run ?suffix events =
  let st = create ?suffix () in
  let rec go i = function
    | [] -> None
    | (Trace.Protocol_violation { rule; detail; _ } as ev) :: _ ->
      (* the run flagged itself: a violation event in the input is a
         conformance failure of the run, whoever reported it *)
      ignore (check st ev);
      Some
        {
          index = i;
          event = ev;
          violation = { rule = "reported_" ^ rule; detail };
          state = state_summary st;
        }
    | ev :: rest -> (
      match check st ev with
      | Some violation ->
        Some { index = i; event = ev; violation; state = state_summary st }
      | None -> go (i + 1) rest)
  in
  go 0 events

let render_report r =
  Printf.sprintf "conformance violation at event %d (%s)\n  rule:   %s\n  %s\n  state:  %s"
    r.index
    (Trace.label r.event)
    r.violation.rule r.violation.detail r.state

(* ----------------------------------------------------------- online *)

let monitor ?(on_violation = fun _ _ -> ()) ?(state = create ()) base =
  Trace.callback (fun ev ->
      Trace.emit base ev;
      match ev with
      | Trace.Protocol_violation _ ->
        (* already a violation signal (ours, or Session's own): count it
           but do not re-flag it, or the stream would double-report *)
        ()
      | _ -> (
        match check state ev with
        | None -> ()
        | Some v ->
          let t = Option.value ~default:Float.nan (time_of ev) in
          let node = Option.value ~default:(-1) (node_of ev) in
          Trace.emit base
            (Trace.Protocol_violation
               { t; node; rule = v.rule; detail = v.detail });
          on_violation ev v))
