#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the binary, Go's build cache and temporary files,
# and each run's traces, stores and checkpoints all live under
# .bench_build/ at the checkout's root.
#
#   bash bench/run.sh --workload paper-flows --seed 7 --seconds 12 --trace 0
#   bash bench/run.sh                      # all six workloads, one JSON document
#   bash bench/run.sh -agree A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -dir "$build/data" "$@"
