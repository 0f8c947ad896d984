#!/bin/sh
# Crash/recovery smoke test for the net runtime's checkpointing:
#   - a `clocksync hub` (processor 0, the source) plus one `clocksync
#     peer` running with --checkpoint, with receive-side loss injected
#     on both ends;
#   - the peer is kill -9'd mid-session, then restarted on the same
#     checkpoint directory;
#   - the restarted peer must print "recovered from checkpoint",
#     re-handshake, and every post-recovery sample must be contained
#     (the interval must hold the hub's wall-clock time).
# Exercises: write-ahead checkpoints on send/ack, Session.restore's
# dedup-floor and msg-id-counter persistence, re-armed ack deadlines
# for in-flight messages, and the re-announce handshake after reboot.
#
# Environment knobs (shared with net_smoke.sh):
#   NET_SMOKE_PORT_BASE   first port of the random range (default 20000)
#   NET_SMOKE_DROP        receive-side loss probability (default 0.15)
#   CRASH_SMOKE_DURATION  hub lifetime in seconds (default 16)
#   SMOKE_ARTIFACT_DIR    if set, logs + JSONL traces are copied there on
#                         failure so CI can upload them
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_init 1

CKPT="$DIR/ckpt"
mkdir -p "$CKPT"
DURATION=${CRASH_SMOKE_DURATION:-16}
DROP=${NET_SMOKE_DROP:-0.15}

echo "crash-smoke: UDP session on 127.0.0.1:$PORT (drop=$DROP), peer will be kill -9'd"

"$BIN" hub --port "$PORT" --nodes 2 --duration "$DURATION" \
  --sample 1 --drop "$DROP" --trace "$DIR/hub.jsonl" --monitor \
  >"$DIR/hub.log" 2>&1 &
HUB_PID=$!
smoke_track "$HUB_PID"

sleep 1

"$BIN" peer --server "127.0.0.1:$PORT" --id 1 --nodes 2 \
  --duration $((DURATION - 2)) --sample 1 --drop "$DROP" \
  --offset-ms=250 --skew-ppm=200 --checkpoint "$CKPT" \
  --trace "$DIR/peer-run1.jsonl" --flight "$DIR/peer-run1.flight" \
  >"$DIR/peer-run1.log" 2>&1 &
PEER_PID=$!
smoke_track "$PEER_PID"

# let the session establish and exchange a few rounds, then pull the plug
sleep 4
echo "crash-smoke: kill -9 peer (pid $PEER_PID)"
kill -9 "$PEER_PID" 2>/dev/null || true
wait "$PEER_PID" 2>/dev/null || true

# restart on the same checkpoint directory; it must recover, not boot fresh
"$BIN" peer --server "127.0.0.1:$PORT" --id 1 --nodes 2 \
  --duration $((DURATION - 8)) --sample 1 --drop "$DROP" \
  --offset-ms=250 --skew-ppm=200 --checkpoint "$CKPT" \
  --trace "$DIR/peer-run2.jsonl" >"$DIR/peer-run2.log" 2>&1 &
PEER_PID=$!
smoke_track "$PEER_PID"

fail=0
wait "$PEER_PID" || { echo "crash-smoke: restarted peer FAILED"; fail=1; }
wait "$HUB_PID" || { echo "crash-smoke: hub FAILED"; fail=1; }
PIDS=""

if ! grep -q "checkpointing to" "$DIR/peer-run1.log"; then
  echo "crash-smoke: first run did not start checkpointing"
  fail=1
fi
if ! grep -q "recovered from checkpoint" "$DIR/peer-run2.log"; then
  echo "crash-smoke: restarted peer did not recover from the checkpoint"
  fail=1
fi
if grep -q "contained=NO" "$DIR/peer-run2.log"; then
  echo "crash-smoke: restarted peer printed an unsound interval"
  fail=1
fi
if ! grep -q "contained=yes" "$DIR/peer-run2.log"; then
  echo "crash-smoke: restarted peer never printed a contained sample"
  fail=1
fi
if ! grep -q "0 containment failures" "$DIR/peer-run2.log"; then
  echo "crash-smoke: restarted peer containment summary missing or nonzero"
  fail=1
fi
if ! grep -q "hub done" "$DIR/hub.log"; then
  echo "crash-smoke: hub did not shut down cleanly"
  fail=1
fi

# Injected loss discards datagrams at the transport, before decode; a
# "frame: ..." drop would mean the in-place decoder rejected real bytes
# — and here the decode path also spans the checkpoint restore.
if grep -q '"reason":"frame:' "$DIR/hub.jsonl"; then
  echo "crash-smoke: hub dropped a frame as undecodable"
  fail=1
fi

# Close the trace loop.  The hub ran to completion, so its trace must
# parse completely, match its trailer, and replay clean through the
# Session protocol spec.  (The hub computes no estimates; the recovered
# peer's trace below must hold them.)
if ! "$BIN" analyze "$DIR/hub.jsonl" --conform \
    >"$DIR/hub-analysis.txt" 2>&1; then
  echo "crash-smoke: hub trace analysis FAILED"
  cat "$DIR/hub-analysis.txt"
  fail=1
fi
# The first peer run was kill -9'd mid-write: its trace has no summary
# trailer and may end in a cut line, but every complete line must still
# parse (the JSONL sink flushes per line) — the analyzer treats the
# ragged tail as truncation, never as a bad line — and the victim's
# partial event stream must itself be protocol-conformant.
if ! "$BIN" analyze "$DIR/peer-run1.jsonl" --conform \
    >"$DIR/peer-run1-analysis.txt" 2>&1; then
  echo "crash-smoke: killed peer's trace analysis FAILED"
  cat "$DIR/peer-run1-analysis.txt"
  fail=1
fi
# The victim's crash flight recorder: kill -9 must still leave a
# decodable bounded ring of its last events (re-dumped on a cadence),
# and that window must be conformant too (suffix mode).
if ! "$BIN" analyze "$DIR/peer-run1.flight" --conform \
    >"$DIR/peer-run1-flight-analysis.txt" 2>&1; then
  echo "crash-smoke: victim's flight dump missing, undecodable, or nonconformant"
  cat "$DIR/peer-run1-flight-analysis.txt"
  fail=1
fi
# The recovered run's trace spans restore + re-handshake; it ran to
# completion, so it must hold the estimate samples it printed and also
# replay conformant (recovery exemptions engage on its Recover event).
if ! "$BIN" analyze "$DIR/peer-run2.jsonl" --require-estimates --conform \
    >"$DIR/peer-run2-analysis.txt" 2>&1; then
  echo "crash-smoke: recovered peer's trace analysis FAILED"
  cat "$DIR/peer-run2-analysis.txt"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "--- hub ---";        cat "$DIR/hub.log"
  echo "--- peer run 1 ---"; cat "$DIR/peer-run1.log"
  echo "--- peer run 2 ---"; cat "$DIR/peer-run2.log"
  exit 1
fi

echo "crash-smoke: OK (peer recovered from kill -9, every post-recovery sample contained, traces + flight dump conformant)"
