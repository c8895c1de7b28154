package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/serve"
)

// sweepSlots is each grid point's simulated length.
const sweepSlots = 1000

// sweepSeeds is the number of seeds the grid replicates each point over.
// Each operation covers all of them, so every operation of a class does the
// same work and the class's percentiles are steady.
const sweepSeeds = 4

// sweepGrid is one half of the fixed sweep grid: both protocols ×
// N ∈ {8, 32, 64} × {no loss, Gilbert–Elliott burst loss} × sweepSeeds
// seeds drawn from the workload seed, either idle or loaded. The idle half
// carries no traffic, so it measures what an empty slot costs; the loaded
// half runs CBR premium traffic.
func sweepGrid(seed uint64, loaded bool) []runner.Job {
	var jobs []runner.Job
	for _, p := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
		for _, n := range []int{8, 32, 64} {
			for _, lossy := range []bool{false, true} {
				for k := uint64(1); k <= sweepSeeds; k++ {
					s := wrtring.Scenario{Protocol: p, N: n, Seed: seed*1000 + k, Duration: sweepSlots}
					if loaded {
						s.Sources = []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
							Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}}
					}
					if lossy {
						s.Fault = &wrtring.FaultSpec{Loss: &wrtring.LossSpec{Mean: 0.02, BurstLen: 8}}
					}
					jobs = append(jobs, runner.Job{Name: fmt.Sprintf("%s/n=%d/loaded=%v/loss=%v/%d", p, n, loaded, lossy, k), Scenario: s})
				}
			}
		}
	}
	return jobs
}

// gridDigest hashes a pass's encoded results in grid order.
func gridDigest(rs []runner.Result) (digest, int) {
	h := sha256.New()
	failed := 0
	for _, r := range rs {
		if r.Err != nil || r.Res == nil {
			failed++
			continue
		}
		b, err := encodeResult(r.Res)
		if err != nil {
			failed++
			continue
		}
		h.Write(b)
	}
	var d digest
	copy(d[:], h.Sum(nil))
	return d, failed
}

// runSweep is the in-process sweep workload: no HTTP, so the simulator
// layers do almost all the work. One operation is one half of the grid run
// through the runner (jobs = nproc, a runner.Pool carried across passes);
// light operations are the idle half, heavy ones the loaded half.
func runSweep(cfg config) *outcome {
	o := &outcome{}
	halves := [][]runner.Job{sweepGrid(cfg.seed, false), sweepGrid(cfg.seed, true)}
	heavy := func(i int) bool { return i%2 == 1 }
	var pool *runner.Pool
	want := make([]digest, len(halves))
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		pool = &runner.Pool{}
		for i, jobs := range halves {
			d, failed := gridDigest(runGrid(jobs, pool, nil, nil, "", ""))
			if failed > 0 {
				o.problem("sweep warm-up: %d jobs failed", failed)
			}
			want[i] = d
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
	}

	last := make([][]runner.Result, len(halves))
	pass := func(w *window, d time.Duration, tr *tracer, acc *simAcc) {
		deadline := time.Now().Add(d)
		t0 := time.Now()
		for k := 0; time.Now().Before(deadline); k++ {
			i := k % len(halves)
			start := time.Now()
			rs := runGrid(halves[i], pool, tr, acc, fmt.Sprintf("grid-%d", k), classOf(heavy(i)))
			lat := time.Since(start)
			d, failed := gridDigest(rs)
			o.attempted += int64(len(rs))
			o.failed += int64(failed)
			if failed == 0 && d != want[i] {
				o.problem("sweep pass %d: grid digest differs from the warm-up pass", k)
			}
			if heavy(i) {
				w.heavy.add(lat)
			} else {
				w.light.add(lat)
			}
			for _, r := range rs {
				if r.Res != nil {
					w.runs++
					w.slots += r.Res.Slots
				}
			}
			last[i] = rs
		}
		w.elapsed = time.Since(t0)
	}

	if !cfg.traced {
		pass(&o.main, cfg.window, nil, nil)
	} else {
		pass(&o.main, cfg.window/2, nil, nil)
		tr := newTracer()
		acc := newSimAcc()
		tw := &window{}
		m0 := readMem()
		pass(tw, cfg.window/2, tr, acc)
		mem := readMem().since(m0)
		o.traced = tw
		o.spans = tr.snapshot()
		o.layers = map[string]float64{}
		var all []runner.Job
		for _, jobs := range halves {
			all = append(all, jobs...)
		}
		acc.allocsPerRun = allocsPerRun(all, pool)
		acc.layers(o.layers)
		o.layers["go.alloc_bytes_per_run"] = ratio(float64(mem.bytes), float64(tw.runs))
		var scen []wrtring.Scenario
		var keys []string
		var payloads [][]byte
		for _, rs := range last {
			for _, r := range rs {
				k, err := serve.Key(r.Job.Scenario)
				b, err2 := encodeResult(r.Res)
				if err != nil || err2 != nil {
					o.problem("sweep point %s: key %v, encode %v", r.Job.Name, err, err2)
					continue
				}
				scen = append(scen, r.Job.Scenario)
				keys = append(keys, k)
				payloads = append(payloads, b)
			}
		}
		replayLayers(o, cfg, scen, keys, payloads)
		o.ledger = buildLedger(o.spans, "sweep.op", nil, "")
		finishLayers(o)
	}

	// The pooled results of the last pass over each half must equal fresh
	// wrtring.Run results, point by point.
	for i, rs := range last {
		scen := make([]wrtring.Scenario, len(rs))
		for j, r := range rs {
			scen[j] = r.Job.Scenario
		}
		exp, errs := expectedResults(scen)
		for j, r := range rs {
			if errs[j] != nil || r.Res == nil {
				o.problem("sweep point %s: no result to check", halves[i][j].Name)
				continue
			}
			b, _ := encodeResult(r.Res)
			if sha256.Sum256(b) != exp[j] {
				o.problem("sweep point %s: pooled-arena result differs from a fresh wrtring.Run", halves[i][j].Name)
			}
		}
	}
	return o
}
