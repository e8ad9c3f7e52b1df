#!/usr/bin/env bash
# Builds the benchmark from source with dune, then runs it:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build messages go to stderr; the last
# line of stdout is the JSON result (see main.ml).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
