#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the arguments
# given, from the root of the checkout this script sits in:
#
#   bash bench/perf/run.sh --workload cluster-steady --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error, so the benchmark's own result
# stays the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . -j 2 ./bench/perf/main.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
