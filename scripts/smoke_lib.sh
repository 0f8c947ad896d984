# Shared harness for the smoke scripts: binary location, scratch
# directory, child-process bookkeeping, the exit trap that reaps
# children and ships artifacts, and the salted port pick.  POSIX sh;
# source it, then call smoke_init with a per-script port salt:
#
#   . "$(dirname "$0")/smoke_lib.sh"
#   smoke_init 2
#
# Provides $BIN, $DIR (a fresh scratch directory, removed on exit) and
# $PORT; register every background child with `smoke_track $!` so the
# exit trap can reap it.
#
# Environment knobs honored here (shared by every smoke script):
#   CLOCKSYNC             path to the clocksync binary
#   NET_SMOKE_PORT_BASE   first port of the random range (default 20000)
#   SMOKE_ARTIFACT_DIR    if set, analyzer reports and result JSON are
#                         always copied there so CI can upload them; raw
#                         logs + JSONL traces are added on failure only

BIN=${CLOCKSYNC:-_build/default/bin/clocksync.exe}
PIDS=""

# On any exit, reap whatever child processes are still alive: a failed
# assertion must not leave an orphaned hub/peer squatting on the port.
smoke_cleanup() {
  status=$?
  for pid in $PIDS; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in $PIDS; do
    wait "$pid" 2>/dev/null || true
  done
  if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    # analyzer reports, result JSON and crash flight dumps are always
    # worth keeping (the flight ring is tiny and is the only artifact a
    # kill -9 victim leaves); raw logs + traces only when an assertion
    # failed
    cp "$DIR"/*-analysis.txt "$DIR"/*.json "$DIR"/*.flight \
      "$SMOKE_ARTIFACT_DIR"/ 2>/dev/null || true
    if [ "$status" -ne 0 ]; then
      cp "$DIR"/*.log "$DIR"/*.jsonl "$DIR"/traces/*.jsonl \
        "$SMOKE_ARTIFACT_DIR"/ 2>/dev/null || true
    fi
  fi
  rm -rf "$DIR"
}

# A throwaway socket would be nicer, but a randomized high port keeps
# this POSIX-sh simple and collisions vanishingly rare; the salt keeps
# simultaneously launched smoke scripts off each other's ports.
smoke_init() {
  DIR=$(mktemp -d)
  trap smoke_cleanup EXIT
  PORT_BASE=${NET_SMOKE_PORT_BASE:-20000}
  PORT=$((PORT_BASE + ($$ + ${1:-0}) % 40000))
}

smoke_track() {
  PIDS="$PIDS $1"
}
