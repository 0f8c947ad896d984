#!/bin/sh
# Two-process hub/swarm smoke test over real UDP with injected loss:
#   - one `clocksync hub` (processor 0) serving 50 clients through a
#     single socket, cohorts of 4, with a JSONL trace;
#   - one `clocksync swarm` process running all 50 NTP-pattern clients
#     with seeded offsets and skews, injecting receive-side loss on
#     both ends;
#   - every client must establish, converge to a finite interval, and
#     stay sound (the swarm exits nonzero otherwise);
#   - the hub must see all 50 up, exit cleanly when the clients say
#     bye, and its trace must analyze clean (per-cohort gauges
#     included).
# Exercises: the single-socket drive loop, burst drain under a 50-hello
# storm, cohort sharding, ack coalescing, loss recovery, and the
# Hub_cohort observability path end to end.
#
# The declared one-way delay bound is generous (5 s): the swarm runs
# 50 sessions in one thread on a shared, non-realtime box, so a
# datagram can legitimately wait whole seconds in a socket buffer
# behind 49 other sessions' work and a scheduler stall — the bound
# must cover scheduling backlog, not just the wire.  (A tighter bound
# makes the AGDP correctly reject the run as a spec violation.)
#
# Environment knobs (shared with net_smoke.sh / crash_smoke.sh):
#   NET_SMOKE_PORT_BASE   first port of the random range (default 20000)
#   HUB_SMOKE_CLIENTS     swarm size (default 50)
#   HUB_SMOKE_DROP        receive-side loss probability (default 0.05)
#   HUB_SMOKE_DURATION    swarm lifetime in seconds (default 24)
#   SMOKE_ARTIFACT_DIR    if set, logs + JSONL traces are copied there on
#                         failure so CI can upload them
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_init 2

CLIENTS=${HUB_SMOKE_CLIENTS:-50}
NODES=$((CLIENTS + 1))
DURATION=${HUB_SMOKE_DURATION:-24}
DROP=${HUB_SMOKE_DROP:-0.05}

echo "hub-smoke: hub + $CLIENTS-client swarm on 127.0.0.1:$PORT (drop=$DROP)"

# the hub outlives the swarm by a wide margin and exits early once
# every client has said bye
"$BIN" hub --port "$PORT" --nodes "$NODES" --duration $((DURATION + 12)) \
  --sample 2 --cohort 4 --max-delay 5000 --drop "$DROP" \
  --trace "$DIR/hub.jsonl" --monitor --flight "$DIR/hub.flight" \
  >"$DIR/hub.log" 2>&1 &
HUB_PID=$!
smoke_track "$HUB_PID"

sleep 1

fail=0
if ! "$BIN" swarm "$CLIENTS" --server "127.0.0.1:$PORT" --nodes "$NODES" \
    --duration "$DURATION" --sample 1 --seed 5 --max-delay 5000 \
    --drop "$DROP" >"$DIR/swarm.log" 2>&1; then
  echo "hub-smoke: swarm FAILED (unsound or unconverged clients)"
  fail=1
fi

wait "$HUB_PID" || { echo "hub-smoke: hub FAILED"; fail=1; }
PIDS=""

if ! grep -q "swarm: $CLIENTS clients — $CLIENTS established, $CLIENTS converged, $CLIENTS sound" \
    "$DIR/swarm.log"; then
  echo "hub-smoke: not every client established+converged+sound"
  fail=1
fi
if ! grep -q "clients up: $CLIENTS/$CLIENTS" "$DIR/hub.log"; then
  echo "hub-smoke: hub never saw all $CLIENTS clients up"
  fail=1
fi
if ! grep -q "hub done" "$DIR/hub.log"; then
  echo "hub-smoke: hub did not shut down cleanly"
  fail=1
fi

# Injected loss discards datagrams at the transport, before decode, so
# a "frame: ..." drop in the trace means the in-place frame decoder
# rejected bytes a real client actually sent — a codec bug, not loss.
if grep -q '"reason":"frame:' "$DIR/hub.jsonl"; then
  echo "hub-smoke: hub dropped a frame as undecodable"
  fail=1
fi

# Close the trace loop: the hub's JSONL stream must parse back
# completely, match its summary trailer, and replay clean through the
# Session protocol spec.  (No --require-estimates: the hub serves
# estimates, the clients compute them.)
if ! "$BIN" analyze "$DIR/hub.jsonl" --conform \
    >"$DIR/hub-analysis.txt" 2>&1; then
  echo "hub-smoke: trace analysis FAILED"
  cat "$DIR/hub-analysis.txt"
  fail=1
fi
# the flight recorder must have left a decodable ring of the last events
if ! "$BIN" analyze "$DIR/hub.flight" --conform \
    >"$DIR/hub-flight-analysis.txt" 2>&1; then
  echo "hub-smoke: flight dump missing, undecodable, or nonconformant"
  cat "$DIR/hub-flight-analysis.txt"
  fail=1
fi
# ... and the per-cohort gauges must have made it into the trace and
# back out of the analyzer
if ! grep -q "hub cohorts" "$DIR/hub-analysis.txt"; then
  echo "hub-smoke: analyzer report is missing the hub cohorts table"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "--- hub ---";   cat "$DIR/hub.log"
  echo "--- swarm ---"; cat "$DIR/swarm.log"
  exit 1
fi

# repeat the hub's last stats line so every run records how many frames
# rode a burst drain and how many shared a flush
FRAMES=$(grep -o 'frames [0-9]* (batched [0-9]*, coalesced [0-9]*)' \
  "$DIR/hub.log" | tail -n 1)
echo "hub-smoke: OK ($CLIENTS clients through one socket: all established, converged, sound; trace analyzed + conformant; hub $FRAMES)"
