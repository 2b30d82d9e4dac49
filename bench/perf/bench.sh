#!/usr/bin/env bash
# Build lbcbench from source and run one benchmark workload:
#
#   bash bench/perf/bench.sh --workload W --seed N --seconds T --trace 0|1
#
# Run from the repository root. Everything the build and the benchmark
# write (dune's _build/, temp files, result records, trace files) stays
# under the current directory: TMPDIR points at .lbcbench/tmp and dune's
# shared cache is off. A failed build exits non-zero before anything is
# printed on standard output.
set -euo pipefail

root=$(pwd)
mkdir -p "$root/.lbcbench/tmp"
export TMPDIR="$root/.lbcbench/tmp"
export DUNE_CACHE=disabled
dune build --root "$root" --display quiet ./bench/perf/lbcbench.exe >&2
exec "$root/_build/default/bench/perf/lbcbench.exe" "$@"
