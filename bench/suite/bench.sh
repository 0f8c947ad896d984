#!/bin/sh
# Build the benchmark suite from the sources of the checkout this script
# sits in, then run one measurement in that checkout:
#
#   sh bench/suite/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the one-line
# JSON result.  The dune cache is disabled so every build artifact stays
# in the checkout's _build directory.
set -eu
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet bench/suite/main.exe 1>&2
exec ./_build/default/bench/suite/main.exe measure "$@"
