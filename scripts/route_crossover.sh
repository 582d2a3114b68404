#!/usr/bin/env bash
# Time Tcca.fit ~r:8 with each operator route pinned, around the route
# model's crossover, for the shapes of DESIGN.md's route tables; print the
# measured crossovers next to the model's and the model constants (c, κ)
# they fit.  Options are those of scripts/route_crossover.ml:
#
#   bash scripts/route_crossover.sh [--pairs P] [--shapes a,b,…]
#                                   [--ns N₁,N₂,…]
#
# Run it from inside the repository, with no other CPU work running: the
# default (3 pairs, 6 shapes, 6 instance counts each) takes about three
# minutes on 2 vCPUs.  TCCA_DOMAINS sets the domain-pool size as for
# every other executable.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --display=quiet ./scripts/route_crossover.exe >&2
exec ./_build/default/scripts/route_crossover.exe "$@"
