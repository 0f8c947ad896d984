#!/bin/sh
# Three-process localhost UDP smoke test for the net runtime:
#   - a `clocksync hub` (processor 0, the source) plus two `clocksync
#     peer` processes with emulated clock offset/skew, each injecting
#     receive-side loss;
#   - every peer sample must report contained=yes (the printed interval
#     contains the hub's wall-clock time);
#   - both peers must converge to finite intervals and exit 0, and the
#     hub must see both up and shut down cleanly.
# Exercises: handshake with backoff re-announce, heartbeat data, ack
# timeouts + loss-verdict gossip (Section 3.3), and bye teardown.
#
# Environment knobs (shared with crash_smoke.sh):
#   NET_SMOKE_PORT_BASE   first port of the random range (default 20000)
#   NET_SMOKE_DROP        receive-side loss probability (default 0.15)
#   NET_SMOKE_DURATION    hub lifetime in seconds (default 8)
#   SMOKE_ARTIFACT_DIR    if set, logs + JSONL traces are copied there on
#                         failure so CI can upload them
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_init 0

DURATION=${NET_SMOKE_DURATION:-8}
PEER_DURATION=$((DURATION - 2))
DROP=${NET_SMOKE_DROP:-0.15}

echo "net-smoke: 3-process UDP session on 127.0.0.1:$PORT (drop=$DROP)"

"$BIN" hub --port "$PORT" --nodes 3 --duration "$DURATION" \
  --sample 1 --drop "$DROP" --trace "$DIR/hub.jsonl" \
  --monitor --flight "$DIR/hub.flight" \
  >"$DIR/hub.log" 2>&1 &
HUB_PID=$!
smoke_track "$HUB_PID"

sleep 1

"$BIN" peer --server "127.0.0.1:$PORT" --id 1 --nodes 3 \
  --duration "$PEER_DURATION" --sample 1 --drop "$DROP" \
  --offset-ms=250 --skew-ppm=200 --trace "$DIR/peer1.jsonl" \
  >"$DIR/peer1.log" 2>&1 &
PEER1_PID=$!
smoke_track "$PEER1_PID"

"$BIN" peer --server "127.0.0.1:$PORT" --id 2 --nodes 3 \
  --duration "$PEER_DURATION" --sample 1 --drop "$DROP" \
  --offset-ms=-400 --skew-ppm=-150 --trace "$DIR/peer2.jsonl" \
  >"$DIR/peer2.log" 2>&1 &
PEER2_PID=$!
smoke_track "$PEER2_PID"

fail=0
wait "$PEER1_PID" || { echo "net-smoke: peer 1 FAILED"; fail=1; }
wait "$PEER2_PID" || { echo "net-smoke: peer 2 FAILED"; fail=1; }
wait "$HUB_PID" || { echo "net-smoke: hub FAILED"; fail=1; }
PIDS=""

for peer in 1 2; do
  log="$DIR/peer$peer.log"
  if grep -q "contained=NO" "$log"; then
    echo "net-smoke: peer $peer printed an unsound interval"
    fail=1
  fi
  if ! grep -q "contained=yes" "$log"; then
    echo "net-smoke: peer $peer never printed a contained sample"
    fail=1
  fi
  if ! grep -q "0 containment failures" "$log"; then
    echo "net-smoke: peer $peer containment summary missing or nonzero"
    fail=1
  fi
  # the peer exchanged data, so its trace must hold the estimate samples
  # it printed (the real client intervals) and replay conformant
  if ! "$BIN" analyze "$DIR/peer$peer.jsonl" --require-estimates --conform \
      >"$DIR/peer$peer-analysis.txt" 2>&1; then
    echo "net-smoke: peer $peer trace analysis FAILED"
    cat "$DIR/peer$peer-analysis.txt"
    fail=1
  fi
done

if ! grep -q "clients up: 2/2" "$DIR/hub.log"; then
  echo "net-smoke: hub never saw both peers up"
  fail=1
fi
if ! grep -q "hub done" "$DIR/hub.log"; then
  echo "net-smoke: hub did not shut down cleanly"
  fail=1
fi

# Injected loss discards datagrams at the transport, before decode, so
# a "frame: ..." drop in the trace means the in-place frame decoder
# rejected bytes a real peer actually sent — a codec bug, not loss.
if grep -q '"reason":"frame:' "$DIR/hub.jsonl"; then
  echo "net-smoke: hub dropped a frame as undecodable"
  fail=1
fi

# Close the trace loop: the hub's JSONL stream must parse back
# completely, its recomputed aggregates must match the summary trailer
# byte for byte, and the whole event stream must replay clean through
# the Session protocol spec.  (The run itself already monitored live
# via --monitor: a violation would have failed the hub.)  No
# --require-estimates here: the hub computes no estimates; the peer
# traces above hold them.
if ! "$BIN" analyze "$DIR/hub.jsonl" --conform \
    >"$DIR/hub-analysis.txt" 2>&1; then
  echo "net-smoke: hub trace analysis FAILED"
  cat "$DIR/hub-analysis.txt"
  fail=1
fi

# the flight recorder must have left a decodable ring of the last events
if ! "$BIN" analyze "$DIR/hub.flight" --conform \
    >"$DIR/hub-flight-analysis.txt" 2>&1; then
  echo "net-smoke: flight dump missing, undecodable, or nonconformant"
  cat "$DIR/hub-flight-analysis.txt"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "--- hub ---";    cat "$DIR/hub.log"
  echo "--- peer 1 ---"; cat "$DIR/peer1.log"
  echo "--- peer 2 ---"; cat "$DIR/peer2.log"
  exit 1
fi

echo "net-smoke: OK (both peers converged, every sample contained, traces analyzed + conformant)"
