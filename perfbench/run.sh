#!/bin/sh
# Build the programs under test and the benchmark from source, then run
# one workload:
#   sh perfbench/run.sh --workload grid-interp|grid-native|serve \
#     --seed N --seconds S --trace 0|1
# Build output goes to stderr so the last line of stdout stays the
# benchmark's JSON result; the shared dune cache is off so that nothing
# is written outside the checkout.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled \
  ./bin/rpcc.exe ./bench/main.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
