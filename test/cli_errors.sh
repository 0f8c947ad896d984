#!/bin/sh
# Regression check: an unwritable --trace or --flight path is refused at
# startup with a clean command-line error (exit 124, message on stderr),
# never an uncaught exception (exit 125), a silent success, or a
# "wrote FILE" claim for a file that does not exist.
#
#   sh test/cli_errors.sh path/to/clocksync.exe
set -u
BIN=$1
BAD=/nonexistent-clocksync-dir/x
fail=0

refused() {
  out=$("$@" 2>&1)
  status=$?
  bad=0
  if [ "$status" -ne 124 ]; then
    echo "cli_errors: '$*' exited $status, expected 124"
    bad=1
  fi
  case $out in
  *"cannot write $BAD"*) ;;
  *)
    echo "cli_errors: '$*' did not name the unwritable path"
    bad=1
    ;;
  esac
  case $out in
  *"wrote "*)
    echo "cli_errors: '$*' claimed a write"
    bad=1
    ;;
  esac
  if [ "$bad" -ne 0 ]; then
    printf '%s\n' "$out"
    fail=1
  fi
}

refused "$BIN" run -n 3 -d 1 --trace "$BAD.jsonl"
for cmd in serve peer hub; do
  port=""
  [ "$cmd" = peer ] || port="--port 0"
  # shellcheck disable=SC2086
  refused "$BIN" $cmd $port -d 0.5 --trace "$BAD.jsonl"
  # shellcheck disable=SC2086
  refused "$BIN" $cmd $port -d 0.5 --flight "$BAD.flight"
done

exit "$fail"
