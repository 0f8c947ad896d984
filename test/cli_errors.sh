#!/bin/sh
# Regression check: an unwritable --trace or --flight path, or a
# degenerate numeric flag of run/sweep, is refused at startup with a
# clean command-line error (exit 124, message on stderr), never an
# uncaught exception (exit 125), a hang, a silent success, or a
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
for cmd in peer hub; do
  port=""
  [ "$cmd" = peer ] || port="--port 0"
  # shellcheck disable=SC2086
  refused "$BIN" $cmd $port -d 0.5 --trace "$BAD.jsonl"
  # shellcheck disable=SC2086
  refused "$BIN" $cmd $port -d 0.5 --flight "$BAD.flight"
done

# `hub` is the only server subcommand: `serve` must be refused as an
# unknown command, before it binds a socket or writes anything
out=$(timeout -s KILL 20 "$BIN" serve --port 0 -d 0.5 2>&1)
status=$?
case $status:$out in
0:* | 137:* | *"wrote "* | *": processor "*)
  echo "cli_errors: 'serve' ran (exit $status) instead of being refused"
  printf '%s\n' "$out"
  fail=1
  ;;
*"unknown command 'serve'"*) ;;
*)
  echo "cli_errors: 'serve' was not refused as an unknown command"
  printf '%s\n' "$out"
  fail=1
  ;;
esac

# rejects FLAG CMD...: CMD exits 124 within 20 s and names FLAG on stderr
# (a hang is killed, and SIGKILL's status 137 is never 124)
rejects() {
  flag=$1
  shift
  err=$(timeout -s KILL 20 "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 124 ]; then
    echo "cli_errors: '$*' exited $status, expected 124"
    printf '%s\n' "$err"
    fail=1
  fi
  case $err in
  *"$flag"*) ;;
  *)
    echo "cli_errors: '$*' did not name $flag on stderr"
    printf '%s\n' "$err"
    fail=1
    ;;
  esac
}

# sweep sweeps the node count here, so every other flag is taken as given
for cmd in "run" "sweep --param nodes --values 3"; do
  # shellcheck disable=SC2086
  set -- "$BIN" $cmd -n 3
  for traffic in poll gossip burst; do
    rejects --period "$@" -d 5 --traffic=$traffic --period 0
  done
  rejects --period "$@" -d 5 --period=0.0004
  rejects --period "$@" -d 5 --period=-1
  rejects --duration "$@" --duration=-5
  rejects --max-delay "$@" -d 5 --min-delay=20 --max-delay=10
  rejects --drift "$@" -d 5 --drift=-5
  rejects --drift "$@" -d 5 --drift=2000000
  rejects --loss "$@" -d 5 --loss=1.5
  rejects --loss "$@" -d 5 --loss=-0.5
done

exit "$fail"
