#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload direct --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <base-results-dir> <new-results-dir>
#
# It runs from the repository root whatever the caller's directory, and
# keeps its build cache, binary and outputs under perfbench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=perfbench/out
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
