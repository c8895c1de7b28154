package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// ErrUnknownJob reports an ID the job table holds no record for: never
// admitted, forgotten, or a finished record that aged out of retention.
var ErrUnknownJob = errors.New("serve: unknown job")

// DefaultFinishedRecords bounds retained terminal job records.
const DefaultFinishedRecords = 4096

// Job is a snapshot of one job record; Data is the owner's per-job data.
type Job[T any] struct {
	ID        string
	State     State
	Err       string
	Coalesced int64
	Elapsed   time.Duration
	Data      T
}

// Status converts the snapshot to the engine-neutral JobStatus.
func (j Job[T]) Status() JobStatus {
	return JobStatus{ID: j.ID, State: j.State, Coalesced: j.Coalesced, Err: j.Err, Elapsed: j.Elapsed}
}

// JobCounts snapshots a table's counters. With nothing in flight,
// Admitted == Completed + Failed + Dropped.
type JobCounts struct {
	Queued, Running int

	Admitted, Completed, Failed, Dropped int64
	Rejected, Coalesced                  int64
}

type jobRecord[T any] struct {
	Job[T]
	done     chan struct{} // closed exactly once, at the terminal transition
	finished *list.Element // place in the retention FIFO; nil while in flight
}

// Jobs is the job lifecycle table that the single-node Queue and the
// cluster coordinator each hold: records keyed by content ID, the queued →
// running → done/failed/dropped transitions, coalesce counts, conservation
// counters and a bounded FIFO of finished records. Wait blocks on a record's
// done channel; Changed is a broadcast closed at every state change. Owners
// may call the table under their own lock; it calls back only through the
// Update and Drain callbacks.
type Jobs[T any] struct {
	mu       sync.Mutex
	records  map[string]*jobRecord[T]
	finished *list.List // terminal IDs, oldest first
	retain   int
	changed  chan struct{}

	byState                       [StateDropped + 1]int64 // in flight now, or terminal ever
	admitted, rejected, coalesced int64
}

// NewJobs creates a table retaining at most retain finished records
// (<= 0: DefaultFinishedRecords).
func NewJobs[T any](retain int) *Jobs[T] {
	if retain <= 0 {
		retain = DefaultFinishedRecords
	}
	return &Jobs[T]{
		records:  make(map[string]*jobRecord[T]),
		finished: list.New(),
		retain:   retain,
		changed:  make(chan struct{}),
	}
}

// Coalesce folds a submission onto id's in-flight record and reports true;
// when id is not in flight it counts nothing and reports false.
func (t *Jobs[T]) Coalesce(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.records[id]
	if !ok || r.State.Terminal() {
		return false
	}
	r.Coalesced++
	t.coalesced++
	return true
}

// Admit creates a queued record for id, replacing a finished one and its
// FIFO entry (an ID never holds two). The caller serialises admissions and
// has seen Coalesce report false.
func (t *Jobs[T]) Admit(id string, data T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.records[id]; ok && old.finished != nil {
		t.finished.Remove(old.finished)
	}
	t.records[id] = &jobRecord[T]{Job: Job[T]{ID: id, State: StateQueued, Data: data}, done: make(chan struct{})}
	t.byState[StateQueued]++
	t.admitted++
	t.notifyLocked()
}

// Reject counts a refused submission (queue full, saturated, draining).
func (t *Jobs[T]) Reject() {
	t.mu.Lock()
	t.rejected++
	t.mu.Unlock()
}

// Start moves id from queued to running, and Requeue back for a
// redispatch; both report false when id was not in the expected state.
func (t *Jobs[T]) Start(id string) bool   { return t.shift(id, StateQueued, StateRunning) }
func (t *Jobs[T]) Requeue(id string) bool { return t.shift(id, StateRunning, StateQueued) }

func (t *Jobs[T]) shift(id string, from, to State) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.records[id]
	if !ok || r.State != from {
		return false
	}
	t.byState[from]--
	t.byState[to]++
	r.State = to
	t.notifyLocked()
	return true
}

// Finish moves id's in-flight record to a terminal state; false when id is
// unknown or already terminal.
func (t *Jobs[T]) Finish(id string, state State, errMsg string, elapsed time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.records[id]
	if !ok || r.State.Terminal() {
		return false
	}
	t.finishLocked(r, state, errMsg, elapsed)
	t.notifyLocked()
	return true
}

// finishLocked is the one terminal transition: it updates the conservation
// counters, closes the record's done channel and files the record in the
// bounded retention FIFO, aging the oldest finished records out.
func (t *Jobs[T]) finishLocked(r *jobRecord[T], state State, errMsg string, elapsed time.Duration) {
	t.byState[r.State]--
	t.byState[state]++
	r.State, r.Err, r.Elapsed = state, errMsg, elapsed
	close(r.done)
	r.finished = t.finished.PushBack(r.ID)
	for t.finished.Len() > t.retain {
		delete(t.records, t.finished.Remove(t.finished.Front()).(string))
	}
}

func (t *Jobs[T]) notifyLocked() {
	close(t.changed)
	t.changed = make(chan struct{})
}

// Forget drops id's finished record (never an in-flight one), so the next
// submission is admitted instead of trusting a result that no longer exists.
func (t *Jobs[T]) Forget(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.records[id]; ok && r.State.Terminal() {
		t.finished.Remove(r.finished)
		delete(t.records, id)
	}
}

// Get snapshots id's record; false when id is unknown.
func (t *Jobs[T]) Get(id string) (Job[T], bool) { return t.Update(id, nil) }

// Update runs fn (when non-nil) on id's owner data and returns the snapshot
// after it; false when id is unknown. fn runs under the table lock, so a
// read there (a live trace count) is atomic with the record's state; it
// must not block or call back into the table or its owner.
func (t *Jobs[T]) Update(id string, fn func(*T)) (Job[T], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.records[id]
	if !ok {
		return Job[T]{}, false
	}
	if fn != nil {
		fn(&r.Data)
	}
	return r.Job, true
}

// Wait blocks until id's record is terminal and returns its final snapshot,
// or fails with ErrUnknownJob or ctx's error.
func (t *Jobs[T]) Wait(ctx context.Context, id string) (Job[T], error) {
	t.mu.Lock()
	r, ok := t.records[id]
	t.mu.Unlock()
	if !ok {
		return Job[T]{}, ErrUnknownJob
	}
	select {
	case <-r.done:
		t.mu.Lock()
		defer t.mu.Unlock()
		return r.Job, nil
	case <-ctx.Done():
		return Job[T]{}, ctx.Err()
	}
}

// Changed returns a channel closed at the table's next state change. Take it
// before the attempt it should re-trigger, so no change slips in between.
func (t *Jobs[T]) Changed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.changed
}

// Counts snapshots the counters.
func (t *Jobs[T]) Counts() JobCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return JobCounts{
		Queued: int(t.byState[StateQueued]), Running: int(t.byState[StateRunning]),
		Admitted: t.admitted, Completed: t.byState[StateDone],
		Failed: t.byState[StateFailed], Dropped: t.byState[StateDropped],
		Rejected: t.rejected, Coalesced: t.coalesced,
	}
}

// Drain is the owner's graceful shutdown once admission has stopped: it
// waits up to timeout for in-flight jobs, calls stop (which must halt
// execution) and drops what is left with the leftover message, so
// conservation holds on return. The report covers this call's window.
func (t *Jobs[T]) Drain(timeout time.Duration, stop func(), leftover string) DrainReport {
	before := t.Counts()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var report DrainReport
	for !report.DeadlineExceeded {
		changed := t.Changed() // before the check, so no finish slips past it
		if c := t.Counts(); c.Queued+c.Running == 0 {
			break
		}
		select {
		case <-deadline.C:
			report.DeadlineExceeded = true
		case <-changed:
		}
	}
	stop()

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.records {
		if !r.State.Terminal() {
			t.finishLocked(r, StateDropped, leftover, 0)
		}
	}
	t.notifyLocked()
	report.Completed = t.byState[StateDone] - before.Completed
	report.Failed = t.byState[StateFailed] - before.Failed
	report.Dropped = t.byState[StateDropped] - before.Dropped
	return report
}
