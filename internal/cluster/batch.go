package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rtnet/wrtring/internal/serve"
)

// The coordinator as a batch backend: serve.Batches drives the same Submit
// path as POST /v1/runs (cache-affine dispatch, coalescing, saturation
// backpressure), waits on the coordinator's job table for shard completion,
// and proxies result bytes from the owner worker's cache shard. Batch
// shards therefore compose the per-worker caches into one cluster cache
// exactly like single-run traffic does — a grid resubmitted to the cluster
// is answered without running a single new simulation.

// Changed returns a channel closed at the job table's next state change.
func (c *Coordinator) Changed() <-chan struct{} { return c.jobs.Changed() }

// Wait blocks until job id is terminal and reports its final state;
// serve.ErrUnknownJob when the record aged out of the finished FIFO.
func (c *Coordinator) Wait(ctx context.Context, id string) (serve.JobStatus, error) {
	j, err := c.jobs.Wait(ctx, id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	st := j.Status()
	st.Cached = j.Data.remoteCached
	return st, nil
}

// JobResult fetches a done job's result bytes from its owner worker. A
// batch can retire a shard as cached and stream it after the job's done
// record has aged out of the finished FIFO; the bytes then still live on
// the ID's hash-ring owner, so they are fetched from there.
func (c *Coordinator) JobResult(ctx context.Context, id string) (json.RawMessage, error) {
	j, ok := c.jobs.Get(id)
	if ok && j.State != serve.StateDone {
		return nil, fmt.Errorf("job %s is not done on this coordinator", id)
	}
	workerID := j.Data.workerID
	if !ok {
		c.mu.Lock()
		owner, live := c.ownerLocked(id)
		c.mu.Unlock()
		if !live {
			return nil, ErrNoWorkers
		}
		workerID = owner.id
	}
	st, err := c.fetchResult(ctx, id, workerID)
	if err != nil {
		return nil, err
	}
	return st.Result, nil
}

// newBatches builds the coordinator's batch manager over itself.
func (c *Coordinator) newBatches() *serve.Batches {
	return serve.NewBatches(serve.BatchOptions{
		Backend:    c,
		MaxPoints:  c.cfg.MaxBatchPoints,
		MaxBatches: c.cfg.MaxBatches,
		// Shard saturation is transient backpressure (the fleet is draining
		// its queues); a dead fleet or a draining coordinator ends feeding.
		Retryable: func(err error) bool { return errors.Is(err, ErrSaturated) },
		Fatal: func(err error) bool {
			return errors.Is(err, ErrDraining) || errors.Is(err, ErrNoWorkers)
		},
	})
}
