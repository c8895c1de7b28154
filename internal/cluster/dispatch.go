package cluster

import (
	"fmt"
	"net/http"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/stats"
)

// latencyCapMs bounds the per-worker job-latency histograms (mirrors
// internal/serve's cap; samples above land in the overflow bucket).
const latencyCapMs = 120_000

// saturationRetries bounds same-worker retries when a live worker answers
// 429 (its own queue is full — e.g. shared with direct clients) before the
// job moves to the next ring owner anyway.
const saturationRetries = 8

// runWorker is one dispatcher goroutine bound to a worker: it pulls jobs
// from the worker's channel and drives each to a terminal state — dispatch,
// poll, and on any worker failure redispatch to the hash ring's next live
// owner. A dead worker's dispatchers keep running precisely so its queued
// jobs drain into redispatches.
func (c *Coordinator) runWorker(w *worker) {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case j := <-w.ch:
			c.dispatch(w, j)
		}
	}
}

// dispatch drives one job on one worker. Determinism is what keeps this
// simple: a job that dies with its worker is re-submitted whole elsewhere
// and the recomputed result is byte-identical, so there is nothing to
// migrate or reconcile — only to re-run.
func (c *Coordinator) dispatch(w *worker, j dispatchJob) {
	if !c.jobs.Start(j.id) {
		return // stale handoff: the job is no longer queued
	}
	if !w.isAlive() {
		c.moveJob(j, w, "owner ejected before dispatch")
		return
	}

	start := time.Now()
	retries := 0
submit:
	if c.ctx.Err() != nil {
		return // drain accounting picks the job up as dropped
	}
	code, resp, err := w.client.SubmitScenarios(c.ctx, []wrtring.Scenario{j.scenario})
	switch {
	case err != nil:
		if c.ctx.Err() != nil {
			// The coordinator cancelled the call itself (drain deadline).
			// That says nothing about the worker's health and the job is
			// still viable: leave both alone so the drain sweep records the
			// job as dropped work rather than a worker failure.
			return
		}
		c.ejectWorker(w, "submit failed: %v", err)
		c.moveJob(j, w, "submit failed")
		return
	case code == http.StatusServiceUnavailable:
		// The worker is draining; it will stop answering shortly.
		c.ejectWorker(w, "worker answered 503 (draining)")
		c.moveJob(j, w, "worker draining")
		return
	case len(resp.Runs) != 1:
		c.finishJob(j.id, w, serve.StateFailed, "worker returned a malformed submit response", time.Since(start))
		return
	}

	run := resp.Runs[0]
	switch run.Status {
	case serve.SubmitQueued, serve.SubmitCoalesced:
	case serve.SubmitCached:
		// The worker's cache shard already holds this result: the whole point
		// of cache-affine routing.
		c.remoteCacheHits.Add(1)
		c.jobs.Update(j.id, func(d *clusterJob) { d.remoteCached = true })
	case "rejected":
		// The worker's own queue is full (it may serve direct clients too).
		// Honour its backpressure hint a few times, then fail over.
		retries++
		if retries > saturationRetries {
			c.moveJob(j, w, "worker persistently saturated")
			return
		}
		if !c.sleep(c.cfg.RetryAfter) {
			return
		}
		goto submit
	default: // "invalid" or unknown
		c.finishJob(j.id, w, serve.StateFailed, "worker rejected the spec: "+run.Error, time.Since(start))
		return
	}

	// Poll the worker until the job is terminal.
	for {
		if !c.sleep(c.cfg.PollInterval) {
			return
		}
		code, st, err := w.client.Status(c.ctx, j.id)
		switch {
		case err != nil:
			if c.ctx.Err() != nil {
				// Self-inflicted cancellation (drain), not a worker fault —
				// see the submit path above.
				return
			}
			c.ejectWorker(w, "status poll failed: %v", err)
			c.moveJob(j, w, "status poll failed")
			return
		case code == http.StatusNotFound:
			// The record vanished — worker restart lost its memory. Re-run.
			c.moveJob(j, w, "worker lost the job record")
			return
		case code != http.StatusOK:
			c.ejectWorker(w, "status poll answered HTTP %d", code)
			c.moveJob(j, w, "status poll failed")
			return
		}
		switch st.Status {
		case serve.StateDone.String():
			c.finishJob(j.id, w, serve.StateDone, "", time.Since(start))
			return
		case serve.StateFailed.String():
			// A deterministic failure: re-running elsewhere reproduces it.
			c.finishJob(j.id, w, serve.StateFailed, st.Error, time.Since(start))
			return
		case serve.StateDropped.String():
			// The worker drained mid-job; the work itself is still viable.
			c.moveJob(j, w, "worker dropped the job while draining")
			return
		}
	}
}

// sleep waits d or until the coordinator shuts down; false means shutdown.
func (c *Coordinator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ejectWorker marks a worker dead after a dispatch-path failure, logging
// only on the live→dead transition. The health prober owns readmission.
func (c *Coordinator) ejectWorker(w *worker, format string, args ...any) {
	if w.markDead(c.cfg.HealthInterval) {
		c.logf("cluster: ejecting worker %s: "+format, append([]any{w.id}, args...)...)
	}
}

// moveJob redispatches a job after its current worker failed it: the job
// goes back to queued state on the hash ring's next live owner. When the
// original owner is the only live worker it retries there; when no worker
// is live, or the attempt budget is spent, the job fails.
func (c *Coordinator) moveJob(j dispatchJob, from *worker, reason string) {
	from.dropDepth()
	rec, _ := c.jobs.Update(j.id, func(d *clusterJob) { d.attempts++ })
	attempts := rec.Data.attempts
	if attempts >= c.cfg.MaxAttempts {
		c.jobs.Finish(j.id, serve.StateFailed,
			fmt.Sprintf("failed after %d dispatch attempts (last: %s)", attempts, reason), 0)
		return
	}
	target := c.nextOwner(j.id, from)
	if target == nil {
		c.jobs.Finish(j.id, serve.StateFailed, "no live workers (last: "+reason+")", 0)
		return
	}
	c.jobs.Update(j.id, func(d *clusterJob) { d.workerID = target.id })
	c.jobs.Requeue(j.id)
	target.addDepth()
	if !target.enqueue(j) {
		target.dropDepth()
		c.jobs.Finish(j.id, serve.StateFailed, "redispatch channel full (capacity invariant broken)", 0)
		return
	}
	c.logf("cluster: redispatching %s: %s → %s (%s, attempt %d)",
		shortID(j.id), from.id, target.id, reason, attempts)
}

// nextOwner picks a redispatch target: the hash ring's next live owner
// after from, else from itself when it is the only live worker, else nil.
func (c *Coordinator) nextOwner(id string, from *worker) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, wid := range c.ring.Sequence(id) {
		if w := c.workers[wid]; wid != from.id && w.isAlive() {
			c.redispatched.Add(1)
			return w
		}
	}
	if from.isAlive() {
		return from // sole live worker: retry in place
	}
	return nil
}

// finishJob retires a job its worker completed (StateDone, whose latency is
// recorded first so a waiter that sees the job done also sees the sample) or
// cannot complete (StateFailed: invalid spec, deterministic simulation error).
func (c *Coordinator) finishJob(id string, w *worker, state serve.State, errMsg string, elapsed time.Duration) {
	w.dropDepth()
	if state == serve.StateDone {
		c.mu.Lock()
		h, ok := c.latency[w.id]
		if !ok {
			h = stats.NewHistogram(latencyCapMs)
			c.latency[w.id] = h
		}
		h.Add(elapsed.Milliseconds())
		c.mu.Unlock()
	}
	c.jobs.Finish(id, state, errMsg, elapsed)
}

// healthLoop probes the fleet: live workers get a liveness check every
// HealthInterval; ejected workers are re-probed on an exponential backoff
// (doubling from HealthInterval, capped at ProbeBackoffMax) and readmitted
// to the ring — which is instant, because the ring itself never changes,
// only the liveness predicate its lookups consult.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		now := time.Now()
		for _, w := range c.fleet() {
			if !w.isAlive() && !w.probeDue(now) {
				continue
			}
			err := w.client.Healthz(c.ctx)
			if c.ctx.Err() != nil {
				// Drain cancelled the probe mid-flight; don't let the
				// shutdown masquerade as a fleet-wide health failure.
				return
			}
			switch {
			case err == nil && !w.isAlive():
				if w.readmit() {
					c.logf("cluster: readmitting worker %s", w.id)
					// Readmission changes ring ownership back: wake the
					// rebalancer so keys computed elsewhere during the outage
					// come home, and the returnee's disk shard serves again.
					c.wakeRebalancer()
				}
			case err != nil && w.isAlive():
				c.ejectWorker(w, "health probe failed: %v", err)
			case err != nil:
				w.probeFailed(c.cfg.HealthInterval, c.cfg.ProbeBackoffMax)
			}
		}
	}
}

func shortID(id string) string {
	if len(id) > 16 {
		return id[:16]
	}
	return id
}
