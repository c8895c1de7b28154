// Benchmarks regenerating the paper's evaluation. The paper's §3 is an
// analytical comparison (it has no numeric tables), so each benchmark runs
// its experiment from the internal/experiments registry — the same entry
// cmd/wrtexperiments renders into EXPERIMENTS.md, at the same defaults —
// reports the entry's metrics next to the closed-form bounds, and fails
// unless the entry's verdict is REPRODUCED.
//
// Run with: go test -run '^$' -bench '^BenchmarkE' -benchtime 1x .
//
// The file lives in the external wrtring_test package (dot-importing the
// library) so that it can import internal/experiments and internal/runner,
// which import wrtring and therefore cannot be used from the library's own
// test package. Pass -jobs to spread each experiment's grid across workers;
// the outcome does not depend on the value.
package wrtring_test

import (
	"flag"
	"testing"

	. "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/experiments"
)

// benchJobs spreads each experiment's scenario grid across a worker pool.
// Per-run determinism makes the reported metrics independent of the value.
var benchJobs = flag.Int("jobs", experiments.Defaults().Jobs,
	"parallel simulation workers for batched benchmarks; 1 runs serially")

// satScenario saturates every station with Premium+BestEffort toward dest.
func satScenario(proto Protocol, n int, dest DestSpec, dur int64, seed uint64) Scenario {
	return Scenario{
		Protocol: proto, N: n, L: 2, K: 2, Seed: seed, Duration: dur,
		Sources: []Source{
			{Station: AllStations, Class: Premium, Dest: dest, Preload: int(dur)},
			{Station: AllStations, Class: BestEffort, Dest: dest, Preload: int(dur)},
		},
	}
}

func mustRun(b *testing.B, s Scenario) *Result {
	b.Helper()
	res, err := Run(s)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runExperiment runs the registry entry whose bench list names the calling
// benchmark, reports its metrics, and fails unless it reproduces.
func runExperiment(b *testing.B) {
	b.Helper()
	e, ok := experiments.ByBench(b.Name())
	if !ok {
		b.Fatalf("no experiment lists %s as its bench", b.Name())
	}
	p := experiments.Defaults()
	p.Jobs = *benchJobs
	var out *experiments.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = e.Run(p); err != nil {
			b.Fatalf("%s: %v", e.ID, err)
		}
		if !out.Reproduced() {
			b.Fatalf("%s NOT REPRODUCED: %v", e.ID, out.Failures)
		}
	}
	for _, m := range out.Metrics {
		b.ReportMetric(m.Value, m.Name)
	}
}

// BenchmarkE1CDMAConcurrency — Figure 1 / §2.1: CDMA concurrency.
func BenchmarkE1CDMAConcurrency(b *testing.B) { runExperiment(b) }

// BenchmarkE2HopsPerRound — Figure 4 / §3.2.1: control-signal hops per round.
func BenchmarkE2HopsPerRound(b *testing.B) { runExperiment(b) }

// BenchmarkE3SignalRoundTrip — §3.3: SAT vs token round trip.
func BenchmarkE3SignalRoundTrip(b *testing.B) { runExperiment(b) }

// BenchmarkE4LossReaction — §3.3: reaction to signal loss and station death.
func BenchmarkE4LossReaction(b *testing.B) { runExperiment(b) }

// BenchmarkE5SATTimeBound — Theorem 1 / Proposition 1.
func BenchmarkE5SATTimeBound(b *testing.B) { runExperiment(b) }

// BenchmarkE6MultiRotationBound — Theorem 2 / Proposition 2.
func BenchmarkE6MultiRotationBound(b *testing.B) { runExperiment(b) }

// BenchmarkE7MeanRotation — Proposition 3.
func BenchmarkE7MeanRotation(b *testing.B) { runExperiment(b) }

// BenchmarkE8AccessDelayBound — Theorem 3.
func BenchmarkE8AccessDelayBound(b *testing.B) { runExperiment(b) }

// BenchmarkE9DiffservClasses — §2.3 / Figure 2.
func BenchmarkE9DiffservClasses(b *testing.B) { runExperiment(b) }

// BenchmarkE10JoinDuringQoS — §2.4.1 / Figure 3.
func BenchmarkE10JoinDuringQoS(b *testing.B) { runExperiment(b) }

// BenchmarkE11RecoveryGeometry — §2.5.
func BenchmarkE11RecoveryGeometry(b *testing.B) { runExperiment(b) }

// BenchmarkE12Capacity — §3.2 (via [13]).
func BenchmarkE12Capacity(b *testing.B) { runExperiment(b) }

// BenchmarkE13Integration — §2.2.
func BenchmarkE13Integration(b *testing.B) { runExperiment(b) }

// BenchmarkE14Allocation — footnote 1 / §2.6.
func BenchmarkE14Allocation(b *testing.B) { runExperiment(b) }

// BenchmarkE15ContentionBaseline — §1 (motivation).
func BenchmarkE15ContentionBaseline(b *testing.B) { runExperiment(b) }
