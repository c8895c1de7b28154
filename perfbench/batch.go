package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/sweep"
)

// Batch workload shape: each grid is both protocols × batchHot hot seeds
// and batchFresh fresh ones — 64 points, half of them cache hits.
const (
	batchHot     = 16
	batchFresh   = 16
	batchHotPool = 64 // hot seeds warmed during set-up (both protocols each)
)

// batchGrid builds one grid over the service scenario: a seed axis with
// the given seeds and a protocol axis with both protocols.
func batchGrid(seeds []uint64) sweep.Grid {
	return sweep.Grid{Base: serviceScenario(wrtring.WRTRing, 0),
		Axes: []sweep.Axis{sweep.AxisSeeds(seeds), sweep.AxisProtocols()}}
}

// batchHotScenarios is the batch hot pool: both protocols for each of the
// batchHotPool hot seeds.
func batchHotScenarios(seed uint64) []wrtring.Scenario {
	seeds := newSeedSpace(seed)
	var hot []wrtring.Scenario
	for i := 0; i < batchHotPool; i++ {
		for _, p := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
			hot = append(hot, serviceScenario(p, seeds.hot(i)))
		}
	}
	return hot
}

// gridOutcome is what one submitted grid produced.
type gridOutcome struct {
	grid      sweep.Grid
	id        string
	submitted time.Time
	lines     []lineOutcome
	firstLine time.Duration
	total     time.Duration
	expanded  int64
	bytes     int
	err       error
}

type lineOutcome struct {
	index    int64
	cacheHit bool
	hot      bool
	at       time.Time
	sum      digest
	err      error
}

// runBatch is the batch workload: one client submits a 64-point grid to
// the cluster via POST /v1/batches and streams its NDJSON results to the
// last line before submitting the next.
func runBatch(cfg config) *outcome {
	o := &outcome{}
	seeds := newSeedSpace(cfg.seed)
	f := setUp(o, startCluster, batchHotScenarios(cfg.seed))
	if f == nil {
		return o
	}
	var grids []gridOutcome
	if !cfg.traced {
		grids = batchWindow(o, &o.main, f, cfg, seeds, cfg.window, nil, 1)
	} else {
		grids = batchWindow(o, &o.main, f, cfg, seeds, cfg.window/2, nil, 1)
		var traced []gridOutcome
		o.traced = &window{}
		before, after, depth := traceWindow(o, f, func(tr *tracer) {
			traced = batchWindow(o, o.traced, f, cfg, seeds, cfg.window/2, tr, 2)
		})
		grids = append(grids, traced...)
		batchLayers(o, cfg, f, traced, before, after, depth)
	}
	var scen []wrtring.Scenario
	var sums []digest
	for _, g := range grids {
		for _, l := range g.lines {
			if l.err != nil {
				continue
			}
			p, err := g.grid.PointAt(l.index)
			if err != nil {
				o.problem("grid point %d: %v", l.index, err)
				continue
			}
			scen = append(scen, p.Scenario)
			sums = append(sums, l.sum)
		}
	}
	o.failed += int64(checkDigests(o, scen, sums))
	f.drain(o)
	return o
}

// batchWindow submits grids closed-loop for d. Every point is one attempted
// operation; light samples are hot points' submit → line latencies (cache
// hits), heavy ones fresh points' (simulations).
func batchWindow(o *outcome, w *window, f *fleet, cfg config, seeds *seedSpace, d time.Duration, tr *tracer, phase uint64) []gridOutcome {
	c := newWireClient(f.front)
	defer c.close()
	rng := rand.New(rand.NewPCG(cfg.seed, phase<<8|0xba))
	var grids []gridOutcome
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for time.Now().Before(deadline) {
		var s []uint64
		for _, i := range rng.Perm(batchHotPool)[:batchHot] {
			s = append(s, seeds.hot(i))
		}
		for i := 0; i < batchFresh; i++ {
			s = append(s, seeds.next())
		}
		g := c.batch(batchGrid(s), seeds, tr)
		grids = append(grids, g)
		want := g.grid.Size()
		o.attempted += want
		if g.err != nil {
			o.failed += want
			quietLog("batch failed: %v", g.err)
			continue
		}
		for _, l := range g.lines {
			if l.err != nil {
				o.failed++
				continue
			}
			w.runs++
			lat := l.at.Sub(g.submitted)
			if l.hot {
				w.light.add(lat)
			} else {
				w.heavy.add(lat)
				w.slots += serviceSlots
			}
		}
		if missing := want - int64(len(g.lines)); missing > 0 {
			o.failed += missing
		}
	}
	w.elapsed = time.Since(t0)
	return grids
}

// batch submits one grid, streams it to the last line and checks the
// batch's own accounting: exactly `expanded` lines, all completed.
func (c *wireClient) batch(g sweep.Grid, seeds *seedSpace, tr *tracer) gridOutcome {
	out := gridOutcome{grid: g}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	body, err := sweep.EncodeGrid(g)
	if err != nil {
		out.err = err
		return out
	}
	rootStart := tr.now()
	var kids []span
	out.submitted = time.Now()
	code, resp, err := c.do(ctx, http.MethodPost, "/v1/batches", body)
	if tr != nil {
		kids = append(kids, span{Name: "client.batch_submit", Parent: -1, Start: rootStart, End: tr.now()})
	}
	if err != nil {
		out.err = err
		return out
	}
	var sub struct {
		ID       string `json:"id"`
		Expanded int64  `json:"expanded"`
	}
	if code != http.StatusOK && code != http.StatusAccepted || json.Unmarshal(resp, &sub) != nil {
		out.err = fmt.Errorf("batch submit: HTTP %d %q", code, truncate(resp))
		return out
	}
	out.id, out.expanded = sub.ID, sub.Expanded
	err = c.streamBatch(ctx, sub.ID, func(l batchLine, size int, at time.Time) {
		lo := lineOutcome{index: l.Index, cacheHit: l.CacheHit, at: at}
		if p, err := g.PointAt(l.Index); err == nil {
			lo.hot = seeds.isHot(p.Scenario.Seed)
		} else {
			lo.err = err
		}
		switch {
		case l.Status != "completed":
			lo.err = fmt.Errorf("point %d: %s %s", l.Index, l.Status, l.Error)
		case len(l.Result) == 0:
			lo.err = fmt.Errorf("point %d: completed without a result", l.Index)
		default:
			lo.sum = sha256.Sum256(l.Result)
		}
		out.bytes += size
		// Each line is its own root under the point's run ID, so the
		// owner worker's spans for that run nest beneath it.
		tr.addTree(span{Trace: l.ID, Name: "client.line", Status: classOf(!lo.hot),
			Start: rootStart, End: tr.since(at)}, nil)
		out.lines = append(out.lines, lo)
	})
	end := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	if int64(len(out.lines)) != out.expanded || out.expanded != g.Size() {
		out.err = fmt.Errorf("batch %s streamed %d lines, expanded %d, grid size %d", out.id, len(out.lines), out.expanded, g.Size())
		return out
	}
	out.total = end.Sub(out.submitted)
	code, resp, err = c.do(ctx, http.MethodGet, "/v1/batches/"+sub.ID, nil)
	var st struct {
		Status                                         string
		Expanded, Completed, Failed, Dropped, Rejected int64
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &st) != nil {
		out.err = fmt.Errorf("batch %s status: HTTP %d %v", sub.ID, code, err)
		return out
	}
	if st.Status != "done" || st.Completed != st.Expanded || st.Expanded != st.Completed+st.Failed+st.Dropped+st.Rejected {
		out.err = fmt.Errorf("batch %s accounting: %+v", sub.ID, st)
		return out
	}
	if len(out.lines) > 0 {
		out.firstLine = out.lines[0].at.Sub(out.submitted)
	}
	tr.addTree(span{Trace: sub.ID, Name: "client.grid", Start: rootStart, End: tr.since(end)}, kids)
	return out
}

// batchLayers derives the per-layer metrics of a traced batch window.
func batchLayers(o *outcome, cfg config, f *fleet, grids []gridOutcome, before, after counters, depth float64) {
	m := map[string]float64{}
	o.layers = m
	var points, hits, bytes float64
	var gridMs, firstMs samples
	var replay []wrtring.Scenario
	for _, g := range grids {
		if g.err != nil {
			continue
		}
		gridMs.add(g.total)
		firstMs.add(g.firstLine)
		bytes += float64(g.bytes)
		for _, l := range g.lines {
			points++
			if l.cacheHit {
				hits++
			}
			if p, err := g.grid.PointAt(l.index); err == nil && !l.hot && len(replay) < replayRuns {
				replay = append(replay, p.Scenario)
			}
		}
	}
	m["batch.grid_ms.p50"] = gridMs.quantile(0.5) / nsPerMs
	m["batch.first_line_ms.p50"] = firstMs.quantile(0.5) / nsPerMs
	m["batch.cache_hit_share"] = ratio(hits, points)
	m["batch.bytes_per_line"] = ratio(bytes, points)
	m["batch.worker_calls_per_point"] = ratio(float64(after.workerCalls-before.workerCalls), points)
	m["serve.queue_depth.mean"] = depth
	ch := float64(after.cache.Hits - before.cache.Hits)
	m["serve.cache_hit_ratio"] = ratio(ch, ch+float64(after.cache.Misses-before.cache.Misses))
	m["serve.evictions_per_run"] = ratio(float64(after.cache.Evictions-before.cache.Evictions), points)
	m["go.alloc_bytes_per_run"] = ratio(float64(after.mem.since(before.mem).bytes), points)
	attempted := float64(after.coord.admitted-before.coord.admitted) + float64(after.coord.rejected-before.coord.rejected)
	m["cluster.rejected_ratio"] = ratio(float64(after.coord.rejected-before.coord.rejected), attempted)

	// Line lag: a fresh point's first "done" status at its worker → its
	// line at the client.
	var lag samples
	firstDone := map[int]int64{}
	for _, s := range o.spans {
		if s.Name == "worker.status" && s.Status == "done" && s.Parent >= 0 {
			if e, ok := firstDone[s.Parent]; !ok || s.End < e {
				firstDone[s.Parent] = s.End
			}
		}
	}
	for _, s := range o.spans {
		if s.Name == "client.line" && s.Status == "heavy" {
			if e, ok := firstDone[s.ID]; ok {
				lag.add(time.Duration(s.End - e))
			}
		}
	}
	m["batch.line_lag_ms.p50"] = lag.quantile(0.5) / nsPerMs
	replayAndLedger(o, cfg, f, replay, "client.line", "")
}
