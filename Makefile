GO ?= go

.PHONY: all build vet fmt-check test test-race race check fuzz bench bench-baseline bench-check bench-grid bench-trajectory cover examples examples-check experiments experiments-check perfbench-check serve cluster-smoke soak-smoke persist-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails, listing the offenders, if any Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .) && test -z "$$out" || { echo "$$out"; exit 1; }

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./sweep ./internal/sim

# race runs the whole module under the race detector — the parallel runner
# makes every package's batch paths multi-threaded, so all of them count.
race:
	$(GO) test -race ./...

# check is the full pre-merge gate: compile, static analysis, tests, races.
check: build vet test race

# fuzz runs each JSON-decoder fuzz target for FUZZTIME (go requires one
# -fuzz pattern per invocation). New inputs that trip a failure are written
# to testdata/fuzz/ — commit the minimised case as a regression seed.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseScenario$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzDestSpec$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzFaultSpec$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-baseline records the current machine's numbers as the regression
# reference; bench-check re-runs the suite and fails if any benchmark is
# more than BENCH_MAX_REGRESSION_PCT (default 10) percent slower.
bench-baseline:
	scripts/bench.sh benchmarks/baseline.txt

bench-check:
	scripts/bench.sh benchmarks/latest.txt
	scripts/bench-compare.sh benchmarks/baseline.txt benchmarks/latest.txt

# bench-grid measures whole-grid scenario throughput through the runner
# (BenchmarkGridThroughput): runs/sec and allocs/run for the fresh build
# path vs a pooled arena carried across batches. This is the sweep-scale
# companion to the per-slot benchmarks; see benchmarks/README.md.
bench-grid:
	$(GO) test -run='^$$' -bench=BenchmarkGridThroughput -benchmem -count=3 ./internal/runner

# bench-trajectory appends the tracked hot-path benchmarks (RunForN64,
# KernelScheduleAndFire) as the next point in the committed perf trajectory
# (benchmarks/bench_results.csv) and emits a BENCH_<n>.json snapshot.
# See benchmarks/README.md "Perf trajectory".
bench-trajectory:
	scripts/bench-trajectory.sh

cover:
	$(GO) test -cover ./...

examples:
	for e in examples/*/; do \
		echo "== $$(basename $$e)"; $(GO) run ./$$e || exit 1; \
	done

# examples-check runs every example and fails if its stdout differs from the
# committed examples/<name>/output.txt (all examples are deterministic).
examples-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	for e in examples/*/; do \
		$(GO) run ./$$e > "$$tmp" && diff -u $${e}output.txt "$$tmp" || exit 1; \
	done

experiments:
	$(GO) run ./cmd/wrtexperiments > EXPERIMENTS.md

# experiments-check regenerates the report into a temp file and fails if it
# differs from the committed EXPERIMENTS.md or if any verdict reads
# NOT REPRODUCED.
experiments-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/wrtexperiments > "$$tmp" && \
	diff -u EXPERIMENTS.md "$$tmp" && \
	! grep -n 'NOT REPRODUCED' "$$tmp"

# perfbench-check vets and tests the separate perfbench module. Root
# `go build ./...` never builds it, so without this target a change to the
# serve or cluster API could break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# serve launches the scenario service (see README "Running as a service").
PORT ?= 8080
serve:
	$(GO) run ./cmd/wrtserved -addr :$(PORT)

# cluster-smoke boots a wrtcoord coordinator + 3 wrtserved workers, runs a
# tiny sweep grid through the cluster twice, and asserts the second pass is
# served entirely from the fleet's cache shards (see README "Running a
# cluster").
cluster-smoke:
	scripts/cluster-smoke.sh

# soak-smoke boots a coordinator + 2 workers, runs a grid through
# POST /v1/batches twice (second pass must be fully cache-served), then puts
# the cluster under a 10s wrtsoak load run. The soak summary JSON lands in
# soak-summary.json (override with SOAK_SUMMARY=...).
soak-smoke:
	scripts/soak-smoke.sh

# persist-smoke exercises the durable result store through the binaries:
# a full-fleet restart must serve the resubmitted grid from the -store-dir
# shards with zero new simulations, and a worker joining at runtime must be
# handed its key range by the rebalancer (see README "Durable cache").
persist-smoke:
	scripts/persist-smoke.sh

clean:
	$(GO) clean ./...
