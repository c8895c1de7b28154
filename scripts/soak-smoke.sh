#!/usr/bin/env bash
# soak-smoke: boot a wrtcoord coordinator fronting two wrtserved workers,
# exercise the batch subsystem end to end, then put the cluster under a
# short wrtsoak load run. Asserts:
#   (a) a grid submitted via POST /v1/batches streams the same CSV as the
#       same grid run in-process,
#   (b) resubmitting the identical grid starts zero new simulations — the
#       second batch is answered entirely from the fleet's cache shards,
#   (c) a 10s wrtsoak run reports nonzero throughput with latency quantiles.
# The soak summary JSON is left at $SOAK_SUMMARY (default soak-summary.json)
# for CI to upload as an artifact. Used by `make soak-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)
SOAK_SUMMARY=${SOAK_SUMMARY:-soak-summary.json}
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/wrtserved ./cmd/wrtcoord ./cmd/wrtsweep ./cmd/wrtsoak

PORTS=(18084 18085)
COORD=127.0.0.1:18091
WORKER_ARGS=()
for i in "${!PORTS[@]}"; do
  "$BIN/wrtserved" -addr "127.0.0.1:${PORTS[$i]}" -id "w$((i + 1))" -workers 2 &
  WORKER_ARGS+=(-worker "w$((i + 1))=http://127.0.0.1:${PORTS[$i]}")
done
"$BIN/wrtcoord" -addr "$COORD" "${WORKER_ARGS[@]}" -poll 5ms -health 250ms &

for _ in $(seq 1 100); do
  curl -sf "http://$COORD/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$COORD/healthz"

run_grid() {
  "$BIN/wrtsweep" -over n -values 5,8,10 -protocols both -dur 5000 "$@"
}

# (a) One POST /v1/batches streams the same bytes as the in-process run.
local_csv=$(run_grid)
batch=$(run_grid -server "http://$COORD")
if [ "$local_csv" != "$batch" ]; then
  echo "soak-smoke: batch CSV diverged from in-process CSV" >&2
  exit 1
fi

# (b) The resubmitted grid must not start a single new simulation: 3 station
# counts x 2 protocols = 6 distinct scenarios, admitted exactly once.
batch2=$(run_grid -server "http://$COORD")
if [ "$batch" != "$batch2" ]; then
  echo "soak-smoke: batch CSV diverged between passes" >&2
  exit 1
fi
admitted=$(curl -sf "http://$COORD/metrics" |
  awk '/^wrtcoord_fleet_admitted_total/ {print $2}')
if [ "$admitted" != "6" ]; then
  echo "soak-smoke: fleet admitted $admitted simulations, want 6" >&2
  exit 1
fi
batches=$(curl -sf "http://$COORD/metrics" |
  awk '/^wrtcoord_batches_created_total/ {print $2}')
if [ "$batches" != "2" ]; then
  echo "soak-smoke: coordinator created $batches batches, want 2" >&2
  exit 1
fi

# (c) Soak the cluster for 10s; wrtsoak exits 1 itself if nothing succeeds.
"$BIN/wrtsoak" -server "http://$COORD" -duration 10s -concurrency 4 \
  -hit 0.5 -slots 2000 -json "$SOAK_SUMMARY"

echo "soak-smoke: OK — batch==in-process CSV, second batch fully cached, soak summary in $SOAK_SUMMARY"
