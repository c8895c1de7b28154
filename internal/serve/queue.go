package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/stats"
	"github.com/rtnet/wrtring/internal/trace"
)

// State is a job's lifecycle position.
type State int

// Job states. Queued and Running are the in-flight states; the rest are
// terminal.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateDropped
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateDropped:
		return "dropped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether s is done, failed or dropped.
func (s State) Terminal() bool { return s >= StateDone }

// Submission outcomes reported by Submit.
const (
	// SubmitQueued: a new job was admitted.
	SubmitQueued = "queued"
	// SubmitCached: the result was already cached; no job was created.
	SubmitCached = "cached"
	// SubmitCoalesced: an identical spec is already in flight; this
	// submission shares its job.
	SubmitCoalesced = "coalesced"
)

// Admission errors.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity — the admission-control backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects a submission because shutdown has begun (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
)

// queueJob is the queue's per-job data in its job table.
type queueJob struct {
	// journal is the run's trace recorder when the scenario enables Trace,
	// read concurrently by the status path (trace.Recorder is internally
	// locked). It lives in the worker's reusable arena, so retire freezes
	// its total into traceTotal and drops the pointer.
	journal    *trace.Recorder
	traceTotal uint64
}

// queuedRun carries an admitted job's scenario to a worker; the job record
// never holds it.
type queuedRun struct {
	id       string
	scenario wrtring.Scenario
}

// JobStatus is the externally visible snapshot of a job or cached result.
type JobStatus struct {
	ID    string
	State State
	// Cached means the result bytes were served from the cache with no job
	// record (either a fresh-submission hit or a completed job whose record
	// aged out).
	Cached bool
	// Coalesced counts additional submissions that shared this job.
	Coalesced int64
	// TraceEvents is the run's live journal total (scenarios with Trace
	// enabled only) — it advances while the job runs.
	TraceEvents uint64
	Err         string
	Elapsed     time.Duration
}

// QueueStats is a point-in-time snapshot of the queue counters. The
// conservation law Admitted == Completed + Failed + Dropped holds once the
// queue is fully drained (in flight, the difference is Depth + Running).
type QueueStats struct {
	Depth    int
	Running  int
	Draining bool

	Admitted  int64
	Completed int64
	Failed    int64
	Dropped   int64
	Rejected  int64
	Coalesced int64
}

// LatencyStats summarises one protocol's job-latency histogram.
type LatencyStats struct {
	Protocol   string
	N          int64
	MeanMs     float64
	P50Ms      int64
	P90Ms      int64
	P99Ms      int64
	MaxMs      int64
	Overflowed int64
}

// latencyCapMs bounds the per-protocol latency histograms (samples above
// land in the overflow bucket; see internal/stats).
const latencyCapMs = 120_000

// Queue is the bounded, admission-controlled job queue. Submissions are
// content-addressed: a spec identical to an in-flight one coalesces onto
// the existing job, and a spec whose result is cached never becomes a job
// at all. Execution is delegated to internal/runner one job at a time per
// worker, which preserves the per-run determinism contract (each run owns
// its kernel and RNG; worker count changes wall clock, never bytes).
type Queue struct {
	cache    *Cache
	capacity int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	jobs *Jobs[queueJob]

	mu       sync.Mutex
	ch       chan queuedRun
	draining bool
	latency  map[string]*stats.Histogram
}

// NewQueue creates a queue of at most capacity pending jobs executed by the
// given number of workers (<= 0 means one per CPU, per internal/runner) and
// starts the workers.
func NewQueue(cache *Cache, capacity, workers int) *Queue {
	if capacity <= 0 {
		capacity = 256
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cache:    cache,
		capacity: capacity,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     NewJobs[queueJob](DefaultFinishedRecords),
		ch:       make(chan queuedRun, capacity),
		latency:  make(map[string]*stats.Histogram),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit admits one scenario and returns its content-addressed job ID plus
// the submission outcome (SubmitQueued, SubmitCached or SubmitCoalesced).
// ErrQueueFull and ErrDraining reject the submission; the returned ID is
// still valid for retries.
func (q *Queue) Submit(s wrtring.Scenario) (id, outcome string, err error) {
	id, err = Key(s)
	if err != nil {
		return "", "", err
	}
	// Admission-path cache lookup: a hit is a completed job for free.
	if _, ok := q.cache.Get(id); ok {
		return id, SubmitCached, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.jobs.Reject()
		return id, "", ErrDraining
	}
	if q.jobs.Coalesce(id) {
		return id, SubmitCoalesced, nil
	}
	// Second cache check: a worker publishes result bytes (cache.Put) before
	// it retires the job record, so a completion that raced the lookup above
	// is visible here rather than re-run. (An entry *evicted* meanwhile is
	// re-admitted below: a deterministic re-run, identical bytes.)
	if _, ok := q.cache.GetIfPresent(id); ok {
		return id, SubmitCached, nil
	}
	if q.jobs.Counts().Queued >= q.capacity {
		q.jobs.Reject()
		return id, "", ErrQueueFull
	}
	q.jobs.Admit(id, queueJob{})
	q.ch <- queuedRun{id: id, scenario: s} // buffered to capacity; never blocks under the depth bound
	return id, SubmitQueued, nil
}

// Status reports a job or cached result by ID. The bool is false when the
// ID is entirely unknown (never admitted, record aged out and not cached).
func (q *Queue) Status(id string) (JobStatus, bool) {
	// A running job's journal total is live; a finished job's is frozen.
	var events uint64
	j, ok := q.jobs.Update(id, func(d *queueJob) {
		if events = d.traceTotal; d.journal != nil {
			events = d.journal.Total()
		}
	})
	if ok {
		st := j.Status()
		st.TraceEvents = events
		return st, true
	}
	if q.cache.Contains(id) {
		return JobStatus{ID: id, State: StateDone, Cached: true}, true
	}
	return JobStatus{}, false
}

// Changed returns a channel closed at the queue's next job state change.
func (q *Queue) Changed() <-chan struct{} { return q.jobs.Changed() }

// Wait blocks until id is terminal and reports its final status (done and
// cached for an ID the table no longer knows but the cache does).
func (q *Queue) Wait(ctx context.Context, id string) (JobStatus, error) {
	j, err := q.jobs.Wait(ctx, id)
	if errors.Is(err, ErrUnknownJob) && q.cache.Contains(id) {
		return JobStatus{ID: id, State: StateDone, Cached: true}, nil
	}
	if err != nil {
		return JobStatus{}, err
	}
	return j.Status(), nil
}

// JobResult returns the encoded result bytes of a done job from the cache,
// where completed jobs store them, or the recovery hint once evicted.
func (q *Queue) JobResult(_ context.Context, id string) (json.RawMessage, error) {
	if data, ok := q.cache.Peek(id); ok {
		return json.RawMessage(data), nil
	}
	return nil, errors.New("result evicted from cache; resubmit the scenario to recompute")
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	draining := q.draining
	q.mu.Unlock()
	c := q.jobs.Counts()
	return QueueStats{
		Depth: c.Queued, Running: c.Running, Draining: draining,
		Admitted: c.Admitted, Completed: c.Completed, Failed: c.Failed,
		Dropped: c.Dropped, Rejected: c.Rejected, Coalesced: c.Coalesced,
	}
}

// LatencySnapshot summarises the per-protocol job latency histograms in
// protocol-name order.
func (q *Queue) LatencySnapshot() []LatencyStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	names := make([]string, 0, len(q.latency))
	for name := range q.latency {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]LatencyStats, 0, len(names))
	for _, name := range names {
		h := q.latency[name]
		out = append(out, LatencyStats{
			Protocol: name, N: h.N(), MeanMs: h.Mean(),
			P50Ms: h.Quantile(0.50), P90Ms: h.Quantile(0.90), P99Ms: h.Quantile(0.99),
			MaxMs: h.Max(), Overflowed: h.Overflowed(),
		})
	}
	return out
}

// DrainReport summarises a graceful shutdown.
type DrainReport struct {
	// Completed and Failed count jobs that reached a measured terminal
	// state during the drain window; Dropped counts work abandoned at the
	// deadline (queued jobs never started plus aborted in-flight runs).
	Completed, Failed, Dropped int64
	// DeadlineExceeded is true when the drain deadline forced aborts.
	DeadlineExceeded bool
}

// Drain performs graceful shutdown: admission stops immediately (Submit
// returns ErrDraining), queued and running jobs get up to timeout to
// finish, and at the deadline the remaining work is cancelled — running
// simulations abort at their next runner chunk boundary — and reported as
// dropped. Drain is idempotent; concurrent calls share one shutdown and
// all block until it completes.
func (q *Queue) Drain(timeout time.Duration) DrainReport {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.ch) // Submit holds q.mu and checks draining, so no send can race this close
	}
	q.mu.Unlock()
	// stop aborts in-flight runs; what is still queued never starts.
	return q.jobs.Drain(timeout, func() {
		q.cancel()
		q.wg.Wait()
	}, "dropped: server shut down before the job started")
}

// worker executes jobs one at a time via the runner until the queue is
// closed (drain) or the context is cancelled (drain deadline). Each worker
// owns one long-lived simulation arena reused across its job stream — the
// per-job network construction cost disappears after the first build, and
// the arena reuse contract keeps results byte-identical to fresh builds
// however the previous job ended (done, failed, aborted at the deadline).
func (q *Queue) worker() {
	defer q.wg.Done()
	arena := wrtring.NewArena()
	for run := range q.ch {
		if q.ctx.Err() != nil {
			return // drain deadline passed; Drain drops the queued remainder
		}
		q.jobs.Start(run.id)
		setup := func(n *wrtring.Network) error {
			if journal := n.Journal(); journal != nil {
				q.jobs.Update(run.id, func(d *queueJob) { d.journal = journal })
			}
			return nil
		}
		start := time.Now()
		res := runner.RunJob(q.ctx, runner.Job{Name: run.id, Scenario: run.scenario, Setup: setup}, arena)
		elapsed := time.Since(start)

		switch {
		case res.Err != nil && errors.Is(res.Err, context.Canceled):
			q.retire(run.id, StateDropped, "dropped: aborted at drain deadline", elapsed)
		case res.Err != nil:
			q.retire(run.id, StateFailed, res.Err.Error(), elapsed)
		default:
			data, err := marshalResult(res.Res)
			if err != nil {
				q.retire(run.id, StateFailed, fmt.Sprintf("encoding result: %v", err), elapsed)
				continue
			}
			q.cache.Put(run.id, data)
			q.observe(run.scenario.Protocol.String(), elapsed)
			q.retire(run.id, StateDone, "", elapsed)
		}
	}
}

// observe records a done job's latency before its terminal transition, so
// a waiter that sees the job done also sees the sample.
func (q *Queue) observe(protocol string, elapsed time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	h, ok := q.latency[protocol]
	if !ok {
		h = stats.NewHistogram(latencyCapMs)
		q.latency[protocol] = h
	}
	h.Add(elapsed.Milliseconds())
}

// retire moves a job to its terminal state. It first freezes the trace count
// and drops the recorder, which the worker's arena resets for its next job
// (retire runs before that RunJob, so the count is still this job's).
func (q *Queue) retire(id string, state State, errMsg string, elapsed time.Duration) {
	q.jobs.Update(id, func(d *queueJob) {
		if d.journal != nil {
			d.traceTotal = d.journal.Total()
			d.journal = nil
		}
	})
	q.jobs.Finish(id, state, errMsg, elapsed)
}
