package runner

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	wrtring "github.com/rtnet/wrtring"
)

// TestReuseArenasMatchesFresh is the runner-level half of the arena reuse
// contract (wrtring's arena tests pin the trace bytes): a grid run with a
// Pool must serialise byte-identically to the default fresh-build path,
// serial and parallel alike, with Result.Net withheld.
func TestReuseArenasMatchesFresh(t *testing.T) {
	fresh := marshal(t, Run(grid(), Options{Jobs: 1}))
	for _, jobs := range []int{1, 4} {
		results := Run(grid(), Options{Jobs: jobs, Pool: &Pool{}})
		for i, r := range results {
			if r.Net != nil {
				t.Fatalf("jobs=%d result %d: Net must be nil under a Pool", jobs, i)
			}
		}
		if got := marshal(t, results); string(got) != string(fresh) {
			t.Fatalf("jobs=%d: pooled output diverged from fresh builds", jobs)
		}
	}
	// A Pool carries dirty arenas across batches; every batch must still
	// match the fresh bytes.
	pool := &Pool{}
	for batch := 0; batch < 3; batch++ {
		results := Run(grid(), Options{Jobs: 1, Pool: pool})
		if got := marshal(t, results); string(got) != string(fresh) {
			t.Fatalf("pooled batch %d: output diverged from fresh builds", batch)
		}
	}
}

// benchGrid is the BenchmarkGridThroughput workload: many small, short
// scenarios, the regime where per-run network construction dominates and
// arena reuse pays. Larger or longer scenarios amortise the build away on
// their own (the steady-state hot path has been allocation-free since the
// hotpath-allocfree trajectory point).
func benchGrid() []Job {
	var jobs []Job
	for _, proto := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
		for _, seed := range []uint64{1, 2, 3, 4} {
			jobs = append(jobs, Job{
				Name: fmt.Sprintf("%v/seed=%d", proto, seed),
				Scenario: wrtring.Scenario{
					Protocol: proto, N: 8, L: 2, K: 2, Seed: seed, Duration: 64,
					Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
						Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}},
				},
			})
		}
	}
	return jobs
}

// BenchmarkGridThroughput measures grid-shaped batch execution through the
// runner: one op is a full pass over benchGrid at Jobs=1. The fresh
// sub-benchmark is the pre-arena path (every job builds its network from
// scratch); reused gives the worker a pooled arena carried across batches,
// the serve queue's steady state. Reported runs/sec is the native rate
// metric (scenarios completed per second); allocs/run is the
// heap-allocation count per scenario, measured over the whole timed section
// via runtime.MemStats.
func BenchmarkGridThroughput(b *testing.B) {
	for _, mode := range []struct {
		name  string
		reuse bool
	}{{"fresh", false}, {"reused", true}} {
		b.Run(mode.name, func(b *testing.B) {
			jobs := benchGrid()
			opts := Options{Jobs: 1}
			if mode.reuse {
				opts.Pool = &Pool{}
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := RunContext(context.Background(), jobs, opts)
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			runs := float64(b.N) * float64(len(jobs))
			b.ReportMetric(runs/b.Elapsed().Seconds(), "runs/sec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/runs, "allocs/run")
		})
	}
}
