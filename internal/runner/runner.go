// Package runner is the worker-pool batch executor behind every parameter
// sweep in the repository. The paper's evaluation (§3) is a wide grid of
// independent simulations — N × (l,k) × protocol × fault configurations —
// and each of them is a single-threaded, seeded discrete-event run, so the
// grid is embarrassingly parallel: scheduling scenarios across GOMAXPROCS
// goroutines changes wall clock, never outcomes.
//
// Determinism contract: every job owns its own sim.Kernel and seeded RNG
// (wrtring.Build creates both from Scenario.Seed), no state is shared
// between jobs, and results are returned in submission order. Jobs == 1
// reproduces the serial behaviour byte for byte; any other worker count
// produces the identical result slice, just faster.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
)

// Job is one scenario in a batch.
type Job struct {
	// Name labels the job in outputs and progress reports.
	Name string
	// Scenario is the experiment to run.
	Scenario wrtring.Scenario
	// Setup, when non-nil, runs on the built network before the simulation
	// starts — the hook for fault injection (kills, signal losses) and for
	// attaching joiners, exactly like driving wrtring.Build by hand.
	Setup func(*wrtring.Network) error
}

// Result pairs a job with what came out of it. Err captures build errors,
// Setup errors, and panics out of the simulation, so one broken scenario
// never aborts the rest of the sweep.
type Result struct {
	Job   Job
	Index int
	// Net is the built network, kept so callers can inspect protocol state
	// (tagged probes, per-station metrics, joiners) after the run. Nil when
	// Err is a build error, and always nil under Options.Pool (the network
	// is recycled for the worker's next job).
	Net     *wrtring.Network
	Res     *wrtring.Result
	Err     error
	Elapsed time.Duration
}

// Options configures a batch.
type Options struct {
	// Jobs is the number of worker goroutines; 0 or negative means
	// runtime.NumCPU(). Jobs == 1 runs everything serially on the calling
	// goroutine in submission order.
	Jobs int
	// OnProgress, when non-nil, is called once per finished job (from the
	// goroutine that ran it, serialised by an internal lock) with the
	// completion count so far.
	OnProgress func(done, total int, r Result)
	// Pool, when non-nil, gives each worker goroutine one wrtring.Arena
	// reused across its job stream and carried across batches: workers
	// check arenas out at batch start and return them when the batch
	// drains, so a caller issuing many consecutive Run calls (a sweep
	// driver, a benchmark harness) reaches the same warmed steady state as
	// the serve queue's long-lived workers instead of paying the per-job
	// network construction cost that dominates small-scenario grids.
	// Results are byte-identical to fresh builds (the arena reuse
	// contract); the one observable difference is that Result.Net is nil —
	// a reused network is invalidated by the worker's next job, so it must
	// not escape the run. Leave Pool nil when post-run protocol state
	// inspection through Result.Net is needed: each job then builds into a
	// fresh arena.
	Pool *Pool
}

// Pool recycles wrtring.Arenas across batches. The zero value is ready to
// use; it is safe for concurrent use by the workers of one or more batches.
type Pool struct {
	mu     sync.Mutex
	arenas []*wrtring.Arena
}

// Get checks an arena out of the pool, allocating a fresh one when empty.
func (p *Pool) Get() *wrtring.Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.arenas); n > 0 {
		a := p.arenas[n-1]
		p.arenas[n-1] = nil
		p.arenas = p.arenas[:n-1]
		return a
	}
	return wrtring.NewArena()
}

// Put returns an arena to the pool.
func (p *Pool) Put(a *wrtring.Arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	p.arenas = append(p.arenas, a)
	p.mu.Unlock()
}

// Run executes all jobs and returns their results in submission order.
func Run(jobs []Job, opts Options) []Result {
	return RunContext(context.Background(), jobs, opts)
}

// cancelCheckSlots is how often (in virtual slots) a running simulation
// polls its context. Advancing the kernel in bounded increments is exactly
// equivalent to one long advance — events fire in the same order at the
// same times — so the chunking changes cancellation latency, never results.
const cancelCheckSlots = 4096

// RunContext is Run with cancellation: when ctx is cancelled, jobs that
// have not started are skipped and in-flight simulations stop at the next
// chunk boundary, all reporting ctx's error as their Result.Err. Jobs that
// completed before the cancellation keep their full, byte-identical
// results — a finished simulation is a pure value and is never invalidated
// by how the rest of the batch was torn down.
func RunContext(ctx context.Context, jobs []Job, opts Options) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return out
	}

	done := 0
	var mu sync.Mutex
	finish := func(r Result) {
		if opts.OnProgress == nil {
			return
		}
		mu.Lock()
		done++
		opts.OnProgress(done, len(jobs), r)
		mu.Unlock()
	}

	// A nil arena makes runOne build each job into a fresh one.
	takeArena := func() *wrtring.Arena {
		if opts.Pool != nil {
			return opts.Pool.Get()
		}
		return nil
	}
	releaseArena := func(a *wrtring.Arena) {
		if opts.Pool != nil {
			opts.Pool.Put(a)
		}
	}

	if workers <= 1 {
		arena := takeArena()
		for i := range jobs {
			out[i] = runOne(ctx, jobs[i], i, arena)
			finish(out[i])
		}
		releaseArena(arena)
		return out
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := takeArena()
			for i := range idx {
				out[i] = runOne(ctx, jobs[i], i, arena)
				finish(out[i])
			}
			releaseArena(arena)
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// RunScenarios is the common single-protocol case: run a slice of bare
// scenarios and return one result per scenario, in order.
func RunScenarios(scenarios []wrtring.Scenario, opts Options) []Result {
	jobs := make([]Job, len(scenarios))
	for i, s := range scenarios {
		jobs[i] = Job{Name: fmt.Sprintf("job-%d", i), Scenario: s}
	}
	return Run(jobs, opts)
}

// RunJob executes one job against an optional long-lived arena (nil builds
// fresh, matching Run with default options). Callers that own their worker
// loop — the serve job queue pulls jobs one at a time off a channel — use it
// to get per-worker arena reuse across independent invocations; see
// Options.Pool for the contract (Result.Net is nil when an arena is
// supplied).
func RunJob(ctx context.Context, job Job, arena *wrtring.Arena) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	return runOne(ctx, job, 0, arena)
}

// runOne executes a single job, converting panics out of the protocol stack
// into per-job errors. The simulation advances in cancelCheckSlots chunks,
// polling ctx between chunks, so an abort lands within one chunk of virtual
// time instead of after the whole run.
func runOne(ctx context.Context, job Job, index int, arena *wrtring.Arena) (r Result) {
	r = Result{Job: job, Index: index}
	start := time.Now()
	defer func() {
		r.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			r.Err = fmt.Errorf("runner: job %q panicked: %v", job.Name, p)
			r.Res = nil
		}
	}()
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	// A network built into a fresh arena is the caller's to keep; one built
	// into a long-lived arena is recycled by the next job.
	fresh := arena == nil
	if fresh {
		arena = wrtring.NewArena()
	}
	net, err := arena.Build(job.Scenario)
	if err != nil {
		r.Err = err
		return r
	}
	if fresh {
		r.Net = net
	}
	if job.Setup != nil {
		if err := job.Setup(net); err != nil {
			r.Err = fmt.Errorf("runner: job %q setup: %w", job.Name, err)
			return r
		}
	}
	duration := net.Scenario.Duration
	for elapsed := int64(0); elapsed < duration; {
		if err := ctx.Err(); err != nil {
			r.Err = err
			r.Res = nil
			return r
		}
		step := int64(cancelCheckSlots)
		if rest := duration - elapsed; rest < step {
			step = rest
		}
		r.Res = net.RunFor(step)
		elapsed += step
	}
	if r.Res == nil { // Duration <= 0: still start and snapshot once
		r.Res = net.RunFor(0)
	}
	return r
}
