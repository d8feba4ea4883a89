#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments (see xbench/main.ml):
#   bash xbench/run.sh --workload dc.longflow --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the benchmark's result is the last line
# of stdout. Fails, printing no result, when the simulator sources are
# not beside it.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./xbench/main.exe 1>&2
exec ./_build/default/xbench/main.exe "$@"
