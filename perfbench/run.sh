#!/usr/bin/env bash
# Build the benchmark and the tccad daemon from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload fit-factored --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository.  Build output goes to stderr so
# that the result line stays the last line of standard output.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --cache=disabled --display=quiet \
  ./perfbench/bench.exe ./bin/tccad.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
