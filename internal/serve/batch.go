package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/sweep"
)

// This file is the batch subsystem: server-side expansion of a sweep.Grid
// into content-addressed shards, admitted through whatever execution engine
// the server runs on (the single-node queue or the cluster coordinator) and
// streamed back as each shard completes. The grid expands through the same
// sweep.Grid.PointAt the local CLIs use, so a batch is provably the same
// point set, in the same order, as the sweep a client would have built —
// and because every shard goes through the content-addressed Submit path,
// resubmitting a grid whose results are cached completes without running a
// single new simulation.

// BatchBackend is what the batch layer needs from an execution engine:
// serve.Queue or cluster.Coordinator (whose JobResult proxies bytes from the
// owner worker's cache shard). Changed and Wait are its job table's signals.
type BatchBackend interface {
	// Submit admits one scenario and reports the content-addressed job ID
	// plus the outcome (SubmitQueued, SubmitCached or SubmitCoalesced).
	Submit(s wrtring.Scenario) (id, outcome string, err error)
	// Changed returns a channel closed at the engine's next job state change.
	Changed() <-chan struct{}
	// Wait blocks until a job is terminal and reports its final state;
	// ErrUnknownJob when the record aged out and the result was evicted.
	Wait(ctx context.Context, id string) (JobStatus, error)
	// JobResult fetches the encoded result bytes of a done job.
	JobResult(ctx context.Context, id string) (json.RawMessage, error)
}

// Batch admission errors.
var (
	// ErrBatchTooLarge rejects a grid whose expansion exceeds MaxPoints
	// (HTTP 413).
	ErrBatchTooLarge = errors.New("serve: grid expands past the batch point limit")
	// ErrTooManyBatches rejects a new batch while every retained slot holds
	// a still-running batch (HTTP 429).
	ErrTooManyBatches = errors.New("serve: too many running batches")
)

// Batch defaults.
const (
	DefaultMaxBatchPoints = 100_000
	DefaultMaxBatches     = 64
)

// BatchOptions parameterise a Batches manager.
type BatchOptions struct {
	Backend BatchBackend
	// MaxPoints bounds one grid's expansion (<= 0: DefaultMaxBatchPoints).
	MaxPoints int64
	// MaxBatches bounds retained batches, running + finished
	// (<= 0: DefaultMaxBatches). Finished batches age out FIFO past it.
	MaxBatches int
	// Retryable classifies admission errors worth retrying (queue or shard
	// full) at the backend's next job state change.
	Retryable func(error) bool
	// Fatal classifies admission errors that end feeding (draining, no
	// workers): the current and remaining shards are marked rejected.
	Fatal func(error) bool
}

// Batches manages the server's batch set: creation, retention, cancel and
// drain. Both daemons own exactly one.
type Batches struct {
	opts BatchOptions
	wg   sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int64
	byID     map[string]*Batch
	order    []string // creation order, for FIFO retention
	created  int64
}

// NewBatches builds a batch manager over the backend.
func NewBatches(opts BatchOptions) *Batches {
	if opts.MaxPoints <= 0 {
		opts.MaxPoints = DefaultMaxBatchPoints
	}
	if opts.MaxBatches <= 0 {
		opts.MaxBatches = DefaultMaxBatches
	}
	if opts.Retryable == nil {
		opts.Retryable = func(error) bool { return false }
	}
	if opts.Fatal == nil {
		opts.Fatal = func(error) bool { return false }
	}
	return &Batches{opts: opts, byID: make(map[string]*Batch)}
}

// batchShard is the per-point record. The scenario itself is never retained:
// the feeder re-derives it from the grid (PointAt) at submit time and the
// queue owns it from there.
type batchShard struct {
	name     string
	jobID    string
	status   string // "" until terminal: completed|failed|dropped|rejected
	cacheHit bool
	errMsg   string
}

// Shard status strings (terminal ones appear in BatchResultLine.Status).
const (
	ShardCompleted = "completed"
	ShardFailed    = "failed"
	ShardDropped   = "dropped"
	ShardRejected  = "rejected"
)

// Batch is one submitted grid: its shard table, counters, job waiters and
// the wake channel streamers block on.
type Batch struct {
	id    string
	grid  sweep.Grid
	total int64
	start time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	wake      chan struct{}
	shards    []batchShard
	doneOrder []int64 // shard indices in terminal order — the stream replay log
	elapsed   time.Duration
	// waiters maps each in-flight job ID to its shards (a grid may repeat a
	// point); each ID has exactly one waiter goroutine.
	waiters map[string][]int64

	admitted  int64 // shards accepted by the backend (queued + coalesced)
	cacheHits int64 // shards answered from the cache at submit time
	coalesced int64 // shards folded onto an identical in-flight job
	completed int64 // includes cacheHits
	failed    int64
	dropped   int64
	rejected  int64
	cancelled bool
}

// ID returns the batch's identifier.
func (b *Batch) ID() string { return b.id }

// Create expands (lazily) and admits one grid, starting its feeder. The
// grid must already be validated (ParseGrid does).
func (bs *Batches) Create(g sweep.Grid) (*Batch, error) {
	total := g.Size()
	if total > bs.opts.MaxPoints {
		return nil, fmt.Errorf("%w: %d points > limit %d", ErrBatchTooLarge, total, bs.opts.MaxPoints)
	}
	bs.mu.Lock()
	if bs.draining {
		bs.mu.Unlock()
		return nil, ErrDraining
	}
	if !bs.pruneLocked() {
		bs.mu.Unlock()
		return nil, ErrTooManyBatches
	}
	bs.seq++
	bs.created++
	ctx, cancel := context.WithCancel(context.Background())
	b := &Batch{
		id:      fmt.Sprintf("b-%d", bs.seq),
		grid:    g,
		total:   total,
		start:   time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		wake:    make(chan struct{}),
		shards:  make([]batchShard, total),
		waiters: make(map[string][]int64),
	}
	bs.byID[b.id] = b
	bs.order = append(bs.order, b.id)
	bs.mu.Unlock()

	bs.wg.Add(1)
	go bs.feed(b)
	return b, nil
}

// pruneLocked ages finished batches out FIFO down to the retention bound.
// It reports false when the bound cannot be met because every retained
// batch is still running.
func (bs *Batches) pruneLocked() bool {
	for len(bs.order) >= bs.opts.MaxBatches {
		evicted := false
		for i, id := range bs.order {
			if b := bs.byID[id]; b.finished() {
				bs.order = append(bs.order[:i], bs.order[i+1:]...)
				delete(bs.byID, id)
				evicted = true
				break
			}
		}
		if !evicted {
			return false
		}
	}
	return true
}

// Get looks a batch up by ID.
func (bs *Batches) Get(id string) (*Batch, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.byID[id]
	return b, ok
}

// Cancel stops a batch's feeder: shards not yet submitted are rejected, and
// shards already admitted drain to their terminal states (the engine runs
// them regardless — a coalesced submitter may still want the result). It
// reports false for an unknown ID.
func (bs *Batches) Cancel(id string) bool {
	b, ok := bs.Get(id)
	if !ok {
		return false
	}
	b.mu.Lock()
	b.cancelled = true
	b.mu.Unlock()
	b.cancel()
	return true
}

// Drain stops batch creation, cancels every feeder and waits (up to
// timeout) for the waiters to retire their in-flight shards. Call it AFTER
// the execution engine's own Drain: once every job is terminal, the
// waiters are guaranteed to exit, preserving the per-batch conservation
// law expanded = completed + failed + dropped + rejected.
func (bs *Batches) Drain(timeout time.Duration) bool {
	bs.mu.Lock()
	bs.draining = true
	for _, b := range bs.byID {
		b.cancel()
	}
	bs.mu.Unlock()
	done := make(chan struct{})
	go func() {
		bs.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// BatchesStats is a point-in-time snapshot of the manager.
type BatchesStats struct {
	Created int64
	Active  int // retained batches still running
}

// Stats snapshots the manager counters.
func (bs *Batches) Stats() BatchesStats {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st := BatchesStats{Created: bs.created}
	for _, b := range bs.byID {
		if !b.finished() {
			st.Active++
		}
	}
	return st
}

// feed walks the grid in expansion order, admitting one shard at a time.
// Backpressure (Retryable errors) waits for the backend's next job state
// change and retries the same shard — the server-side analogue of the client
// honouring Retry-After — so a grid larger than the queue capacity feeds at
// exactly the rate the queue drains. Fatal errors and cancellation reject
// the current and all remaining shards, keeping the conservation law intact.
func (bs *Batches) feed(b *Batch) {
	defer bs.wg.Done()
	var stop error // set once feeding is over (drain or cancel)
	for i := int64(0); i < b.total; i++ {
		pt, err := b.grid.PointAt(i)
		if err != nil { // unreachable on a validated grid; account, don't wedge
			b.retire(i, ShardRejected, err.Error())
			continue
		}
		b.mu.Lock()
		b.shards[i].name = pt.Name
		b.mu.Unlock()
		if stop == nil {
			stop = bs.feedOne(b, i, pt.Scenario)
		}
		if stop != nil {
			b.retire(i, ShardRejected, stop.Error())
		}
	}
}

// feedOne admits one shard, retrying through backpressure. A non-nil return
// means feeding must stop entirely.
func (bs *Batches) feedOne(b *Batch, i int64, s wrtring.Scenario) error {
	for {
		if b.ctx.Err() != nil {
			return errors.New("batch cancelled before the shard was submitted")
		}
		// Taken before the attempt, so capacity freed after it still wakes us.
		changed := bs.opts.Backend.Changed()
		id, outcome, err := bs.opts.Backend.Submit(s)
		switch {
		case err == nil:
			b.mu.Lock()
			b.shards[i].jobID = id
			if outcome == SubmitCached {
				b.cacheHits++
				b.retireLocked(i, ShardCompleted, "", true)
			} else { // queued, or coalesced onto an in-flight job
				if outcome == SubmitCoalesced {
					b.coalesced++
				}
				b.admitted++
				bs.awaitLocked(b, i, id)
			}
			b.mu.Unlock()
			return nil
		case bs.opts.Fatal(err):
			return err
		case bs.opts.Retryable(err):
			select {
			case <-b.ctx.Done():
				return errors.New("batch cancelled before the shard was submitted")
			case <-changed:
			}
		default:
			// Per-shard failure (e.g. an unencodable scenario): reject just
			// this shard and keep feeding.
			b.retire(i, ShardRejected, err.Error())
			return nil
		}
	}
}

// awaitLocked marks shard i as waiting on job id, starting the job's waiter
// when it is the batch's first shard on that ID.
func (bs *Batches) awaitLocked(b *Batch, i int64, id string) {
	shards, waiting := b.waiters[id]
	b.waiters[id] = append(shards, i)
	if !waiting {
		bs.wg.Add(1) // the feeder's own count keeps the group open
		go bs.await(b, id)
	}
}

// await blocks on one job's terminal transition and retires every shard
// mapped to it. It outlives cancellation on purpose: admitted work runs
// regardless. Exit is guaranteed because the engine's Drain leaves every
// job terminal; a job whose record vanished is accounted failed here.
func (bs *Batches) await(b *Batch, id string) {
	defer bs.wg.Done()
	st, err := bs.opts.Backend.Wait(context.Background(), id)
	b.mu.Lock()
	defer b.mu.Unlock()
	shards := b.waiters[id]
	delete(b.waiters, id)
	for _, i := range shards {
		switch {
		case err != nil:
			b.retireLocked(i, ShardFailed, "job record lost (evicted before completion was observed); resubmit the batch", false)
		case st.State == StateDone:
			b.retireLocked(i, ShardCompleted, "", st.Cached)
		case st.State == StateFailed:
			b.retireLocked(i, ShardFailed, st.Err, false)
		default:
			b.retireLocked(i, ShardDropped, st.Err, false)
		}
	}
}

// retire moves one shard to a terminal state and wakes streamers.
func (b *Batch) retire(i int64, status, errMsg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retireLocked(i, status, errMsg, false)
}

// retireLocked moves one shard to a terminal state, marking whether a cache
// answered it, and wakes streamers.
func (b *Batch) retireLocked(i int64, status, errMsg string, cacheHit bool) {
	if b.shards[i].status != "" {
		return // already terminal
	}
	b.shards[i].status = status
	b.shards[i].errMsg = errMsg
	b.shards[i].cacheHit = cacheHit
	switch status {
	case ShardCompleted:
		b.completed++
	case ShardFailed:
		b.failed++
	case ShardDropped:
		b.dropped++
	case ShardRejected:
		b.rejected++
	}
	b.doneOrder = append(b.doneOrder, i)
	if b.finishedLocked() {
		b.elapsed = time.Since(b.start)
	}
	b.wakeLocked()
}

// wakeLocked broadcasts to every streamer blocked on the wake channel.
func (b *Batch) wakeLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// finished reports whether every shard is terminal.
func (b *Batch) finished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.finishedLocked()
}

func (b *Batch) finishedLocked() bool {
	return b.completed+b.failed+b.dropped+b.rejected == b.total
}

// Status snapshots the batch for GET /v1/batches/{id}.
func (b *Batch) Status() BatchStatusResponse {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatusResponse{
		ID:        b.id,
		Status:    "running",
		Expanded:  b.total,
		Admitted:  b.admitted,
		CacheHits: b.cacheHits,
		Coalesced: b.coalesced,
		Completed: b.completed,
		Failed:    b.failed,
		Dropped:   b.dropped,
		Rejected:  b.rejected,
	}
	elapsed := b.elapsed
	if elapsed == 0 {
		elapsed = time.Since(b.start)
	}
	st.ElapsedMs = elapsed.Milliseconds()
	switch {
	case b.cancelled:
		st.Status = "cancelled"
	case b.finishedLocked():
		st.Status = "done"
	}
	return st
}

// lineAt returns the cursor-th terminal shard as a result line (without the
// result payload — the streamer fetches that outside the lock). When the
// cursor is caught up, it returns the wake channel to block on and whether
// the stream is complete.
func (b *Batch) lineAt(cursor int) (line BatchResultLine, ok bool, wake <-chan struct{}, finished bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cursor < len(b.doneOrder) {
		i := b.doneOrder[cursor]
		sh := b.shards[i]
		return BatchResultLine{
			Index: i, Name: sh.name, ID: sh.jobID, Status: sh.status,
			CacheHit: sh.cacheHit, Error: sh.errMsg,
		}, true, nil, false
	}
	return BatchResultLine{}, false, b.wake, b.finishedLocked()
}
