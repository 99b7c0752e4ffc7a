#!/usr/bin/env bash
# Build the campaign benchmark from source, then run it with the given
# arguments.  Run from the repository root:
#   bash campaignbench/run.sh --workload chain_campaign --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; standard output is the benchmark's own.
set -euo pipefail
dune build --root . ./campaignbench/bench.exe 1>&2
exec ./_build/default/campaignbench/bench.exe "$@"
