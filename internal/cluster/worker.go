package cluster

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtnet/wrtring/internal/serve"
)

// worker is the coordinator's handle on one wrtserved instance: the HTTP
// client that speaks to it, the channel its dispatchers pull from, the
// coordinator-side depth bound, and the health state the prober maintains.
type worker struct {
	id     string
	url    string
	client *serve.Client

	// ch carries admitted jobs to this worker's dispatcher goroutines. Its
	// capacity covers every outstanding job in the cluster, so enqueue never
	// blocks (see the capacity note in New).
	ch chan dispatchJob

	// depth is the coordinator's count of jobs assigned to this worker that
	// have not reached a terminal state (queued in ch, being dispatched, or
	// polling). It bounds admission per shard.
	depth atomic.Int64

	// alive flips false when a dispatch or probe fails and back on probe
	// success. Dispatchers for a dead worker keep running — they drain ch by
	// redispatching everything to the next live ring owner.
	alive atomic.Bool

	// Health-probe state, owned by the prober (healthMu also covers the
	// logging decision so eject/readmit events log exactly once).
	healthMu    sync.Mutex
	failures    int
	nextProbeAt time.Time
}

func newWorker(spec WorkerSpec, chanCap int, timeout time.Duration) *worker {
	client := serve.NewClient(spec.URL)
	client.HTTP = &http.Client{Timeout: timeout}
	w := &worker{
		id:     spec.ID,
		url:    spec.URL,
		client: client,
		ch:     make(chan dispatchJob, chanCap),
	}
	w.alive.Store(true)
	return w
}

func (w *worker) isAlive() bool { return w.alive.Load() }

func (w *worker) queueDepth() int { return int(w.depth.Load()) }
func (w *worker) addDepth()       { w.depth.Add(1) }
func (w *worker) dropDepth()      { w.depth.Add(-1) }

// enqueue hands a job to the worker's dispatchers; false means the channel
// was full, which the admission bound makes impossible unless the capacity
// proof in New is broken.
func (w *worker) enqueue(j dispatchJob) bool {
	select {
	case w.ch <- j:
		return true
	default:
		return false
	}
}

// markDead ejects the worker; true when this call did the flip (so the
// caller logs the ejection once). The prober takes over readmission from
// here with exponential backoff.
func (w *worker) markDead(base time.Duration) bool {
	w.healthMu.Lock()
	defer w.healthMu.Unlock()
	flipped := w.alive.CompareAndSwap(true, false)
	if flipped {
		w.failures = 1
		w.nextProbeAt = time.Now().Add(base)
	}
	return flipped
}

// probeDue reports whether the backoff window for an ejected worker has
// elapsed.
func (w *worker) probeDue(now time.Time) bool {
	w.healthMu.Lock()
	defer w.healthMu.Unlock()
	return !now.Before(w.nextProbeAt)
}

// probeFailed extends the backoff: the wait doubles per consecutive failure
// starting from base, capped at max.
func (w *worker) probeFailed(base, max time.Duration) {
	w.healthMu.Lock()
	defer w.healthMu.Unlock()
	w.failures++
	backoff := base
	for i := 1; i < w.failures && backoff < max; i++ {
		backoff *= 2
	}
	if backoff > max {
		backoff = max
	}
	w.nextProbeAt = time.Now().Add(backoff)
}

// readmit marks the worker live again after a successful probe; true when
// this call did the flip.
func (w *worker) readmit() bool {
	w.healthMu.Lock()
	defer w.healthMu.Unlock()
	flipped := w.alive.CompareAndSwap(false, true)
	if flipped {
		w.failures = 0
	}
	return flipped
}
