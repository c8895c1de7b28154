package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/serve"
)

// Service workload shape.
const (
	serviceN     = 16
	serviceSlots = 2000
	// hotPool is the number of hot scenarios warmed during set-up.
	hotPool = 128
	// warmChunk is scenarios per warm-up POST, at most the coordinator's
	// default per-worker bound, so warm-up is rarely pushed back.
	warmChunk = 32
	// replayRuns bounds the scenarios replayed through the runner for the
	// simulator layer metrics of a service workload.
	replayRuns = 96
)

// clients is the closed-loop client count: at most nproc, and two here.
var clients = min(2, nproc)

// serviceScenario is the service workloads' run: a WRT-Ring of serviceN
// stations under CBR premium traffic. One protocol keeps the miss
// latencies unimodal, so their percentiles are steady.
func serviceScenario(p wrtring.Protocol, seed uint64) wrtring.Scenario {
	return wrtring.Scenario{Protocol: p, N: serviceN, Seed: seed, Duration: serviceSlots,
		Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}}}
}

// seedSpace hands out scenario seeds derived from the workload seed: a
// fixed hot pool, and fresh seeds never used before in the run.
type seedSpace struct {
	base  uint64
	fresh atomic.Uint64
}

func newSeedSpace(seed uint64) *seedSpace { return &seedSpace{base: seed << 24} }

func (s *seedSpace) hot(i int) uint64 { return s.base + uint64(i) }
func (s *seedSpace) next() uint64     { return s.base + hotPool + s.fresh.Add(1) }
func (s *seedSpace) isHot(seed uint64) bool {
	return seed >= s.base && seed < s.base+hotPool
}

// op is one closed-loop request and what came back.
type op struct {
	scenario wrtring.Scenario
	hot      bool
	out      runOutcome
}

// warm submits scenarios and waits until every one is done, retrying
// pushed-back items. It is part of set-up.
func warm(c *wireClient, scenarios []wrtring.Scenario) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for lo := 0; lo < len(scenarios); lo += warmChunk {
		chunk := scenarios[lo:min(lo+warmChunk, len(scenarios))]
		var ids []string
		for len(chunk) > 0 {
			var encoded [][]byte
			for _, s := range chunk {
				b, err := wrtring.EncodeScenario(s)
				if err != nil {
					return err
				}
				encoded = append(encoded, b)
			}
			_, resp, err := c.do(ctx, http.MethodPost, "/v1/runs", submitBody(encoded...))
			if err != nil {
				return fmt.Errorf("warm-up submit: %w", err)
			}
			var sub struct{ Runs []submitRun }
			if err := json.Unmarshal(resp, &sub); err != nil || len(sub.Runs) != len(chunk) {
				return fmt.Errorf("warm-up submit: bad response %q", truncate(resp))
			}
			var retry []wrtring.Scenario
			for i, r := range sub.Runs {
				switch r.Status {
				case "queued", "cached", "coalesced":
					ids = append(ids, r.ID)
				case "rejected":
					retry = append(retry, chunk[i])
				default:
					return fmt.Errorf("warm-up submit: %s %s", r.Status, r.Error)
				}
			}
			chunk = retry
			if len(retry) > 0 && !sleepCtx(ctx, 10*time.Millisecond) {
				return ctx.Err()
			}
		}
		for _, id := range ids {
			for {
				code, resp, err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil)
				if err != nil {
					return fmt.Errorf("warm-up status: %w", err)
				}
				var st statusBody
				if code != http.StatusOK || json.Unmarshal(resp, &st) != nil {
					return fmt.Errorf("warm-up status: HTTP %d %q", code, truncate(resp))
				}
				if st.Status == "done" {
					break
				}
				if st.Status != "queued" && st.Status != "running" {
					return fmt.Errorf("warm-up run %s: %s %s", id, st.Status, st.Error)
				}
				if !sleepCtx(ctx, pollInterval) {
					return ctx.Err()
				}
			}
		}
	}
	return nil
}

func runDirect(cfg config) *outcome {
	rep := 0
	return runService(cfg, func() (*fleet, error) {
		rep++
		return startDirect(fmt.Sprintf("%s/direct-%d", cfg.workdir, rep))
	})
}

func runCluster(cfg config) *outcome {
	return runService(cfg, startCluster)
}

// setUp starts a fleet and warms the hot pool setupReps times, keeping the
// last fleet; setup_s is the median.
func setUp(o *outcome, start func() (*fleet, error), hot []wrtring.Scenario) *fleet {
	var f *fleet
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			f.drain(o)
		}
		t := time.Now()
		var err error
		f, err = start()
		if err != nil {
			o.problem("set-up: %v", err)
			return nil
		}
		c := newWireClient(f.front)
		err = warm(c, hot)
		c.close()
		if err != nil {
			o.problem("set-up: %v", err)
			f.drain(o)
			return nil
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
	}
	return f
}

// runService is the direct and cluster workload: closed-loop clients, each
// sending half hot-pool requests (cache hits, the light class) and half
// fresh ones (a simulation each, the heavy class).
func runService(cfg config, start func() (*fleet, error)) *outcome {
	o := &outcome{}
	seeds := newSeedSpace(cfg.seed)
	hot := make([]wrtring.Scenario, hotPool)
	for i := range hot {
		hot[i] = serviceScenario(wrtring.WRTRing, seeds.hot(i))
	}
	f := setUp(o, start, hot)
	if f == nil {
		return o
	}
	var ops []op
	if !cfg.traced {
		ops = serviceWindow(o, &o.main, f, cfg, seeds, hot, cfg.window, nil, 1)
	} else {
		ops = serviceWindow(o, &o.main, f, cfg, seeds, hot, cfg.window/2, nil, 1)
		var traced []op
		o.traced = &window{}
		before, after, depth := traceWindow(o, f, func(tr *tracer) {
			traced = serviceWindow(o, o.traced, f, cfg, seeds, hot, cfg.window/2, tr, 2)
		})
		ops = append(ops, traced...)
		serviceLayers(o, cfg, f, traced, before, after, depth)
	}
	scen := make([]wrtring.Scenario, 0, len(ops))
	sums := make([]digest, 0, len(ops))
	for _, p := range ops {
		if p.out.err == nil {
			scen = append(scen, p.scenario)
			sums = append(sums, p.out.sum)
		}
	}
	o.failed += int64(checkDigests(o, scen, sums))
	f.drain(o)
	return o
}

// serviceWindow runs the closed loop for d and returns every operation.
func serviceWindow(o *outcome, w *window, f *fleet, cfg config, seeds *seedSpace, hot []wrtring.Scenario, d time.Duration, tr *tracer, phase uint64) []op {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ops []op
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newWireClient(f.front)
			defer c.close()
			rng := rand.New(rand.NewPCG(cfg.seed, phase<<8|uint64(k)))
			var mine []op
			for time.Now().Before(deadline) {
				p := op{hot: rng.IntN(2) == 0}
				if p.hot {
					p.scenario = hot[rng.IntN(len(hot))]
				} else {
					p.scenario = serviceScenario(wrtring.WRTRing, seeds.next())
				}
				enc, err := wrtring.EncodeScenario(p.scenario)
				if err != nil {
					p.out.err = err
				} else {
					p.out = c.run(context.Background(), submitBody(enc), tr, classOf(!p.hot))
				}
				mine = append(mine, p)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	for _, p := range ops {
		o.attempted++
		if p.out.err != nil {
			o.failed++
			if o.failed <= 3 {
				quietLog("request failed: %v", p.out.err)
			}
			continue
		}
		w.runs++
		if p.hot {
			w.light.add(p.out.lat)
		} else {
			w.heavy.add(p.out.lat)
			w.slots += serviceSlots
		}
	}
	return ops
}

// checkDigests compares every returned result with a local wrtring.Run of
// the same scenario and returns how many differ.
func checkDigests(o *outcome, scen []wrtring.Scenario, got []digest) int {
	index := map[string]int{}
	var distinct []wrtring.Scenario
	slot := make([]int, len(scen))
	for i, s := range scen {
		k, err := serve.Key(s)
		if err != nil {
			o.problem("serve.Key: %v", err)
			return len(scen)
		}
		j, ok := index[k]
		if !ok {
			j = len(distinct)
			index[k] = j
			distinct = append(distinct, s)
		}
		slot[i] = j
	}
	want, errs := expectedResults(distinct)
	bad := 0
	for i := range scen {
		j := slot[i]
		if errs[j] != nil || got[i] != want[j] {
			bad++
			if bad <= 3 {
				o.problem("result for seed %d (%s) differs from a local wrtring.Run", scen[i].Seed, scen[i].Protocol)
			}
		}
	}
	return bad
}

// counters are the program's own counters read around the traced window.
type counters struct {
	workerCalls int64
	cache       serve.CacheStats
	storePuts   int64
	coord       clusterCounts
	mem         memDelta
}

type clusterCounts struct{ admitted, rejected int64 }

func takeCounters(f *fleet) counters {
	c := counters{workerCalls: f.workerCalls(), cache: f.cacheStats(), mem: readMem()}
	if f.store != nil {
		c.storePuts = f.store.Stats().Puts
	}
	if f.coord != nil {
		s := f.coord.Stats()
		c.coord = clusterCounts{s.Admitted, s.Rejected}
	}
	return c
}

// traceWindow runs fn with span recording on in every tap. It returns the
// program's counters around fn and the mean queue depth during it, and
// stores the spans in o.
func traceWindow(o *outcome, f *fleet, fn func(tr *tracer)) (before, after counters, depth float64) {
	tr := newTracer()
	before = takeCounters(f)
	f.setTracer(tr)
	stop := sampleDepth(f)
	fn(tr)
	depth = stop()
	f.setTracer(nil)
	after = takeCounters(f)
	o.spans = tr.snapshot()
	return before, after, depth
}

// sampleDepth samples the summed queue depth every millisecond until the
// returned stop function is called; stop returns the mean.
func sampleDepth(f *fleet) func() float64 {
	done := make(chan struct{})
	result := make(chan float64, 1)
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var sum, n float64
		for {
			select {
			case <-done:
				result <- ratio(sum, n)
				return
			case <-t.C:
				sum += float64(f.queueDepth())
				n++
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// serviceLayers derives the per-layer metrics of a traced service window.
func serviceLayers(o *outcome, cfg config, f *fleet, ops []op, before, after counters, depth float64) {
	m := map[string]float64{}
	o.layers = m
	var ok, misses, polls, bytes float64
	var replay []wrtring.Scenario
	for _, p := range ops {
		if p.out.err != nil {
			continue
		}
		ok++
		polls += float64(p.out.polls)
		bytes += float64(p.out.size)
		if !p.hot {
			misses++
			if len(replay) < replayRuns {
				replay = append(replay, p.scenario)
			}
		}
	}
	m["serve.status_polls_per_run"] = ratio(polls, ok)
	m["serve.result_bytes.mean"] = ratio(bytes, ok)
	m["serve.queue_depth.mean"] = depth
	hits := float64(after.cache.Hits - before.cache.Hits)
	lookups := hits + float64(after.cache.Misses-before.cache.Misses)
	m["serve.cache_hit_ratio"] = ratio(hits, lookups)
	m["serve.disk_hit_share"] = ratio(float64(after.cache.DiskHits-before.cache.DiskHits), hits)
	m["serve.evictions_per_run"] = ratio(float64(after.cache.Evictions-before.cache.Evictions), ok)
	m["go.alloc_bytes_per_run"] = ratio(float64(after.mem.since(before.mem).bytes), ok)
	if f.store != nil {
		m["store.puts_per_miss"] = ratio(float64(after.storePuts-before.storePuts), misses)
	}
	if f.coord != nil {
		m["cluster.worker_calls_per_run"] = ratio(float64(after.workerCalls-before.workerCalls), ok)
		attempted := float64(after.coord.admitted-before.coord.admitted) + float64(after.coord.rejected-before.coord.rejected)
		m["cluster.rejected_ratio"] = ratio(float64(after.coord.rejected-before.coord.rejected), attempted)
	}
	spanLayers(m, o.spans, f.frontTap.prefix)
	replayAndLedger(o, cfg, f, replay, "client.request", "client.wait")
}

// replayAndLedger replays a sample of the scenarios the window simulated
// through the runner, as the queue's workers run them, for the simulator
// layers; then replays serve.Key and the store, and builds the ledger over
// the roots named rootName.
func replayAndLedger(o *outcome, cfg config, f *fleet, replay []wrtring.Scenario, rootName, waitLayer string) {
	m := o.layers
	acc := newSimAcc()
	var jobs []runner.Job
	for _, s := range replay {
		jobs = append(jobs, runner.Job{Name: fmt.Sprint(s.Seed), Scenario: s})
	}
	pool := &runner.Pool{}
	rs := runGrid(jobs, pool, newTracer(), acc, "replay", "heavy")
	acc.allocsPerRun = allocsPerRun(jobs, pool)
	acc.layers(m)
	var keys []string
	var payloads [][]byte
	for _, r := range rs {
		if r.Err != nil || r.Res == nil {
			o.problem("replay of seed %d: %v", r.Job.Scenario.Seed, r.Err)
			continue
		}
		k, _ := serve.Key(r.Job.Scenario)
		b, _ := encodeResult(r.Res)
		keys = append(keys, k)
		payloads = append(payloads, b)
	}
	replayLayers(o, cfg, replay, keys, payloads)
	heavy := map[string]float64{"runner.job": acc.job.quantile(0.5) / nsPerMs}
	if f.store != nil {
		heavy["store.put"] = m["store.put_us.p50"] / 1e3
	}
	o.ledger = buildLedger(o.spans, rootName, map[string]map[string]float64{"heavy": heavy}, waitLayer)
	finishLayers(o)
}

// spanLayers derives the handler, client-overhead and coordinator-hop
// metrics from the spans. front is the tap prefix of the server clients
// talk to ("worker" direct, "coord" through the coordinator).
func spanLayers(m map[string]float64, spans []span, front string) {
	kids := map[int][]int{}
	root := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		r := i
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		root[i] = r
	}
	var submit, status, overhead samples
	for i, s := range spans {
		switch s.Name {
		case front + ".submit":
			submit.add(time.Duration(s.dur()))
		case front + ".status":
			status.add(time.Duration(s.dur()))
		case "client.submit", "client.status":
			for _, k := range kids[i] {
				if spans[k].Name == front+".submit" || spans[k].Name == front+".status" {
					overhead.add(time.Duration(s.dur() - spans[k].dur()))
				}
			}
		}
	}
	m["httpx.submit_us.p50"] = submit.quantile(0.5) / nsPerUs
	m["httpx.status_us.p50"] = status.quantile(0.5) / nsPerUs
	m["serve.client_overhead_us.p50"] = overhead.quantile(0.5) / nsPerUs
	if front != "coord" {
		return
	}
	// Per request tree: the coordinator's submit, the owner worker's
	// submit, and the worker's first "done" status.
	type hopTree struct {
		root                 span
		coordSubmit, wsubmit *span
		firstDone            *span
	}
	trees := map[int]*hopTree{}
	var proxy samples
	for i, s := range spans {
		rt := spans[root[i]]
		if rt.Name != "client.request" {
			continue
		}
		t := trees[root[i]]
		if t == nil {
			t = &hopTree{root: rt}
			trees[root[i]] = t
		}
		s := s
		switch s.Name {
		case "coord.submit":
			if t.coordSubmit == nil {
				t.coordSubmit = &s
			}
		case "worker.submit":
			if t.wsubmit == nil || s.Start < t.wsubmit.Start {
				t.wsubmit = &s
			}
		case "worker.status":
			if s.Status == "done" && (t.firstDone == nil || s.Start < t.firstDone.Start) {
				t.firstDone = &s
			}
		case "coord.status":
			if rt.Status == "light" {
				for _, k := range kids[i] {
					if spans[k].Name == "worker.status" {
						proxy.add(time.Duration(s.dur() - spans[k].dur()))
					}
				}
			}
		}
	}
	var dispatch, lag, hop samples
	ids := make([]int, 0, len(trees))
	for id := range trees {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := trees[id]
		if t.root.Status != "heavy" || t.coordSubmit == nil || t.wsubmit == nil || t.firstDone == nil {
			continue
		}
		dispatch.add(time.Duration(t.wsubmit.Start - t.coordSubmit.End))
		lag.add(time.Duration(t.firstDone.Start - (t.wsubmit.Start + t.firstDone.ElapsedMs*int64(time.Millisecond))))
		hop.add(time.Duration(t.root.dur() - (t.firstDone.End - t.wsubmit.Start)))
	}
	m["cluster.dispatch_wait_ms.p50"] = dispatch.quantile(0.5) / nsPerMs
	m["cluster.poll_lag_ms.p50"] = lag.quantile(0.5) / nsPerMs
	m["cluster.hop_ms.p50"] = hop.quantile(0.5) / nsPerMs
	m["cluster.proxy_us.p50"] = proxy.quantile(0.5) / nsPerUs
}
