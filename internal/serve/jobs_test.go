package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fifo lists the table's retention FIFO, oldest first.
func fifo[T any](t *Jobs[T]) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []string
	for e := t.finished.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(string))
	}
	return ids
}

func runJob(t *testing.T, jobs *Jobs[int], id string, state State) {
	t.Helper()
	if jobs.Coalesce(id) {
		t.Fatalf("%s: coalesced, want a fresh admission", id)
	}
	jobs.Admit(id, 0)
	if !jobs.Start(id) {
		t.Fatalf("%s: start refused", id)
	}
	if !jobs.Finish(id, state, "", time.Millisecond) {
		t.Fatalf("%s: finish refused", id)
	}
}

func TestJobsRetentionBound(t *testing.T) {
	jobs := NewJobs[int](3)
	for i := 0; i < 10; i++ {
		runJob(t, jobs, fmt.Sprintf("j%d", i), StateDone)
	}
	if got := fifo(jobs); fmt.Sprint(got) != "[j7 j8 j9]" {
		t.Fatalf("FIFO %v, want the three newest", got)
	}
	for i := 0; i < 10; i++ {
		_, ok := jobs.Get(fmt.Sprintf("j%d", i))
		if want := i >= 7; ok != want {
			t.Fatalf("j%d known=%v, want %v", i, ok, want)
		}
	}
	if n := len(jobs.records); n != 3 {
		t.Fatalf("%d records retained, want 3", n)
	}
}

// TestJobsReadmitKeepsOneFIFOEntry: re-admitting a finished ID replaces its
// record and its FIFO entry, so trimming the ID's old position can never
// delete the live record.
func TestJobsReadmitKeepsOneFIFOEntry(t *testing.T) {
	jobs := NewJobs[int](2)
	runJob(t, jobs, "a", StateFailed)
	runJob(t, jobs, "b", StateDone)

	jobs.Admit("a", 0)
	if got := fifo(jobs); fmt.Sprint(got) != "[b]" {
		t.Fatalf("FIFO while a is in flight: %v, want [b]", got)
	}
	if j, ok := jobs.Get("a"); !ok || j.State != StateQueued {
		t.Fatalf("re-admitted record: %+v known=%v", j, ok)
	}
	jobs.Start("a")
	jobs.Finish("a", StateDone, "", 0)
	if got := fifo(jobs); fmt.Sprint(got) != "[b a]" {
		t.Fatalf("FIFO after re-run: %v, want exactly one entry for a", got)
	}

	// One more finish trims b, the oldest; a survives.
	runJob(t, jobs, "c", StateDone)
	if _, ok := jobs.Get("b"); ok {
		t.Fatal("b outlived the retention bound")
	}
	if j, ok := jobs.Get("a"); !ok || j.State != StateDone {
		t.Fatalf("a lost to a stale FIFO entry: %+v known=%v", j, ok)
	}
}

func TestJobsDoneChannelClosesOnce(t *testing.T) {
	jobs := NewJobs[int](0)
	jobs.Admit("x", 0)
	done := jobs.records["x"].done
	select {
	case <-done:
		t.Fatal("done closed before the terminal transition")
	default:
	}
	if !jobs.Finish("x", StateFailed, "boom", 0) {
		t.Fatal("first finish refused")
	}
	<-done
	// A second terminal transition, by either path, is a no-op rather than a
	// double close (which would panic).
	if jobs.Finish("x", StateDone, "", 0) {
		t.Fatal("second finish accepted")
	}
	if r := jobs.Drain(0, func() {}, "drain"); r.Dropped != 0 {
		t.Fatalf("drain touched a finished record: %+v", r)
	}
	if j, _ := jobs.Get("x"); j.State != StateFailed || j.Err != "boom" {
		t.Fatalf("record rewritten after its terminal transition: %+v", j)
	}
	if c := jobs.Counts(); c.Failed != 1 || c.Completed != 0 || c.Dropped != 0 {
		t.Fatalf("counters moved twice: %+v", c)
	}
}

func TestJobsWait(t *testing.T) {
	jobs := NewJobs[string](0)
	jobs.Admit("x", "payload")
	jobs.Start("x")

	got := make(chan Job[string], 1)
	go func() {
		j, err := jobs.Wait(context.Background(), "x")
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		got <- j
	}()
	select {
	case j := <-got:
		t.Fatalf("wait returned before the terminal transition: %+v", j)
	case <-time.After(20 * time.Millisecond):
	}
	jobs.Finish("x", StateDone, "", 5*time.Millisecond)
	select {
	case j := <-got:
		if j.State != StateDone || j.Data != "payload" || j.Elapsed != 5*time.Millisecond {
			t.Fatalf("wait snapshot %+v", j)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait did not return on the terminal transition")
	}
	// A finished record answers at once.
	if j, err := jobs.Wait(context.Background(), "x"); err != nil || j.State != StateDone {
		t.Fatalf("wait on finished record: %+v %v", j, err)
	}

	// Context cancellation ends the wait on an in-flight record.
	jobs.Admit("y", "")
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := jobs.Wait(ctx, "y")
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait ignored ctx cancel")
	}

	if _, err := jobs.Wait(context.Background(), "never"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown ID: %v, want ErrUnknownJob", err)
	}
}

func TestJobsChangedFiresOnEveryTransition(t *testing.T) {
	jobs := NewJobs[int](0)
	steps := []struct {
		name string
		do   func()
	}{
		{"admit", func() { jobs.Admit("x", 0) }},
		{"start", func() { jobs.Start("x") }},
		{"requeue", func() { jobs.Requeue("x") }},
		{"restart", func() { jobs.Start("x") }},
		{"finish", func() { jobs.Finish("x", StateDone, "", 0) }},
	}
	for _, s := range steps {
		changed := jobs.Changed()
		s.do()
		select {
		case <-changed:
		default:
			t.Fatalf("%s did not fire the change broadcast", s.name)
		}
	}
	// Counting a coalesce or a rejection is not a state change.
	jobs.Admit("y", 0)
	changed := jobs.Changed()
	jobs.Coalesce("y")
	jobs.Reject()
	select {
	case <-changed:
		t.Fatal("coalesce/reject fired the change broadcast")
	default:
	}
}

// TestJobsCountersBalanceAfterDrain: whatever mix of states a drain finds,
// it waits out the deadline, calls stop, drops the in-flight remainder and
// closes the books.
func TestJobsCountersBalanceAfterDrain(t *testing.T) {
	jobs := NewJobs[int](4) // retention smaller than the job count
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("j%d", i)
		jobs.Admit(id, 0)
		switch i % 4 {
		case 0: // left queued
		case 1:
			jobs.Start(id) // left running
		case 2:
			jobs.Start(id)
			jobs.Finish(id, StateDone, "", 0)
		case 3:
			jobs.Finish(id, StateFailed, "bad spec", 0)
		}
	}
	jobs.Coalesce("j0")
	jobs.Reject()
	if c := jobs.Counts(); c.Queued != 3 || c.Running != 3 {
		t.Fatalf("in flight before drain: %+v", c)
	}

	stopped := false
	r := jobs.Drain(10*time.Millisecond, func() { stopped = true }, "drained")
	if !stopped || !r.DeadlineExceeded || r.Dropped != 6 || r.Completed+r.Failed != 0 {
		t.Fatalf("drain report %+v (stop called: %v)", r, stopped)
	}
	for _, id := range fifo(jobs) {
		if j, _ := jobs.Get(id); j.State == StateDropped && j.Err != "drained" {
			t.Fatalf("leftover job after drain: %+v", j)
		}
	}
	c := jobs.Counts()
	if c.Queued != 0 || c.Running != 0 {
		t.Fatalf("in flight after drain: %+v", c)
	}
	if c.Admitted != c.Completed+c.Failed+c.Dropped {
		t.Fatalf("conservation broken: %+v", c)
	}
	if c.Admitted != 12 || c.Completed != 3 || c.Failed != 3 || c.Dropped != 6 || c.Coalesced != 1 || c.Rejected != 1 {
		t.Fatalf("counters %+v", c)
	}
	if n := len(fifo(jobs)); n != 4 {
		t.Fatalf("retention FIFO holds %d, want the bound 4", n)
	}
}

// TestJobsDrainWaitsForInflight: jobs finishing inside the deadline are
// counted as such, and stop runs only once nothing is in flight.
func TestJobsDrainWaitsForInflight(t *testing.T) {
	jobs := NewJobs[int](0)
	jobs.Admit("x", 0)
	jobs.Start("x")
	go func() {
		time.Sleep(10 * time.Millisecond)
		jobs.Finish("x", StateDone, "", 0)
	}()
	r := jobs.Drain(time.Minute, func() {
		if c := jobs.Counts(); c.Running != 0 {
			t.Errorf("stop called with work in flight: %+v", c)
		}
	}, "drained")
	if r.DeadlineExceeded || r.Completed != 1 || r.Dropped != 0 {
		t.Fatalf("drain report %+v", r)
	}
}

func TestJobsForget(t *testing.T) {
	jobs := NewJobs[int](0)
	jobs.Admit("x", 0)
	jobs.Forget("x")
	if _, ok := jobs.Get("x"); !ok {
		t.Fatal("forgot an in-flight record")
	}
	jobs.Finish("x", StateDone, "", 0)
	jobs.Forget("x")
	if _, ok := jobs.Get("x"); ok || len(fifo(jobs)) != 0 {
		t.Fatalf("forgotten record lingers: FIFO %v", fifo(jobs))
	}
	if jobs.Coalesce("x") {
		t.Fatal("forgotten record still coalesces")
	}
}

// TestJobsConcurrentLifecycle drives the table from many goroutines at once
// — admissions serialised as the contract requires, workers moving jobs
// through their states, waiters — and checks that every waiter sees its
// job's terminal state and the books close.
func TestJobsConcurrentLifecycle(t *testing.T) {
	const ids, submitters = 64, 4
	jobs := NewJobs[int](16)
	work := make(chan string, ids*submitters)
	var admit sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("j%d", i)
				admit.Lock()
				if !jobs.Coalesce(id) {
					if j, ok := jobs.Get(id); !ok || j.State != StateDone {
						jobs.Admit(id, i)
						work <- id
					}
				}
				admit.Unlock()
				wg.Add(1)
				go func() {
					defer wg.Done()
					if j, err := jobs.Wait(context.Background(), id); err == nil && !j.State.Terminal() {
						t.Errorf("wait on %s returned state %v", id, j.State)
					}
				}()
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for id := range work {
				jobs.Start(id)
				jobs.Update(id, func(d *int) { *d = -*d })
				state := StateDone
				if len(id)%2 == 0 {
					state = StateFailed
				}
				jobs.Finish(id, state, "", 0)
			}
		}()
	}
	wg.Wait()
	close(work)
	workers.Wait()
	c := jobs.Counts()
	if c.Queued != 0 || c.Running != 0 || c.Admitted != c.Completed+c.Failed+c.Dropped {
		t.Fatalf("books do not close: %+v", c)
	}
	if c.Admitted < ids {
		t.Fatalf("admitted %d of %d distinct IDs", c.Admitted, ids)
	}
}
