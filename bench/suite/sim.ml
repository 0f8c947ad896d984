(* Bench-side simulator driver: one [Engine.run] per round, observed
   through the scenario's trace sink.

   The engine is a black box between its trace events, so the driver
   cuts the run into per-virtual-second windows from outside: a window
   ends at the first event stamped at or after its last instant, and
   the clock is read only there. *)

type round = {
  wall : float;  (* the whole round, scenario construction included *)
  windows : Stat.window list;  (* in order *)
  deliveries : int;
  checkpoints : int;
  widths : float list;  (* finite optimal widths of samples at t >= 2 s *)
  result : Engine.result;
}

let event_time : Trace.event -> float option = function
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
  | Protocol_violation { t; _ } ->
    Some t
  | Liveness _ | Oracle_insert _ | Oracle_gc _ | Span _ -> None

(* [scenario] builds the round's scenario; its construction is timed
   with the round.  With [traced], the engine's Prof spans become
   ledger leaves under one [engine.run] span. *)
let run_round ?(traced = false) scenario =
  let t_pre = Ledger.now () in
  let scn = scenario () in
  let windows = ref [] and widths = ref [] in
  let deliveries = ref 0 and checkpoints = ref 0 in
  let boundary = ref 1. and w_msgs = ref 0 and w_start = ref 0. in
  let close_window c =
    windows :=
      { Stat.index = int_of_float !boundary; wall = c -. !w_start; msgs = !w_msgs }
      :: !windows;
    w_start := c;
    w_msgs := 0;
    boundary := !boundary +. 1.
  in
  let on_event ev =
    match event_time ev with
    | None -> ()
    | Some t -> (
      if t >= !boundary then begin
        let c = Ledger.now () in
        while t >= !boundary do
          close_window c
        done
      end;
      match ev with
      | Trace.Receive _ ->
        incr w_msgs;
        incr deliveries
      | Trace.Estimate { algo = "optimal"; width; _ }
        when t >= 2. && Float.is_finite width ->
        widths := width :: !widths
      | Trace.Checkpoint _ -> incr checkpoints
      | _ -> ())
  in
  let scn =
    {
      scn with
      Scenario.trace = Trace.callback on_event;
      prof = (if traced then Ledger.prof () else Prof.null);
    }
  in
  Ledger.set_on traced;
  let t0 = Ledger.now () in
  w_start := t0;
  let root = Ledger.open_at "engine.run" t0 in
  let result = Engine.run scn in
  let t1 = Ledger.now () in
  Ledger.close_at root t1;
  Ledger.set_on false;
  close_window t1;
  {
    wall = t1 -. t_pre;
    windows = List.rev !windows;
    deliveries = !deliveries;
    checkpoints = !checkpoints;
    widths = !widths;
    result;
  }
