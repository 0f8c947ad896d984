#!/bin/sh
# Links with lo = hi (--min-delay = --max-delay) deliver off every
# receiver's ticks.  Their receivers read the floor tick like any
# other, and on the charged spec every estimate still contains the
# true time, under crash/restart chaos too: `run` must report
# "contained N/N" on a polled star and on a gossip ring.
#
#   sh test/exact_links.sh path/to/clocksync.exe
set -u
BIN=$1
fail=0
for topo in "star poll" "ring gossip"; do
  set -- $topo
  out=$("$BIN" run --topology "$1" --traffic "$2" --nodes 6 --duration 20 \
    --min-delay 5 --max-delay 5 --chaos 2 2>&1)
  status=$?
  row=$(printf '%s\n' "$out" | grep '^optimal ')
  contained=$(printf '%s\n' "$row" | awk '{print $3}')
  case $status:$contained in
  0:0/*) bad=1 ;;
  0:*/*) [ "${contained%/*}" = "${contained#*/}" ] && bad=0 || bad=1 ;;
  *) bad=1 ;;
  esac
  if [ "$bad" -ne 0 ]; then
    echo "exact_links: $1/$2 with lo = hi: exit $status, contained '$contained'"
    printf '%s\n' "$out"
    fail=1
  fi
done
exit "$fail"
