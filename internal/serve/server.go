package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/internal/store"
)

// Config sizes a Server.
type Config struct {
	// Workers is the simulation worker count (<= 0: one per CPU).
	Workers int
	// QueueCapacity bounds admitted-but-unstarted jobs (<= 0: 256).
	QueueCapacity int
	// CacheEntries / CacheBytes bound the result cache (see NewCache).
	CacheEntries int
	CacheBytes   int64
	// MaxBatch bounds scenarios per POST /v1/runs request (<= 0: 256).
	MaxBatch int
	// MaxBodyBytes bounds the request body (<= 0: 8 MiB).
	MaxBodyBytes int64
	// WorkerID names this instance when it serves as a cluster worker
	// (cmd/wrtserved -id); surfaced on /healthz, /metrics and /v1/stats.
	WorkerID string
	// Store is the optional durable result tier beneath the RAM LRU
	// (cmd/wrtserved -store-dir opens one). The cache writes results
	// through to it and falls back to it on RAM misses, so a restarted
	// worker serves its whole history without re-simulating; see
	// internal/store.
	Store *store.Store
	// HandoffRate bounds background shard-handoff pulls in keys per second
	// (<= 0: DefaultHandoffRate).
	HandoffRate int
	// MaxBatchPoints bounds one batch grid's expansion
	// (<= 0: DefaultMaxBatchPoints).
	MaxBatchPoints int64
	// MaxBatches bounds retained batches (<= 0: DefaultMaxBatches).
	MaxBatches int
	// RetryAfter is the backpressure hint on 429/503 responses
	// (<= 0: DefaultRetryAfter).
	RetryAfter time.Duration
	// RequestTimeout bounds each API request end to end
	// (<= 0: httpx.DefaultRequestTimeout). Debug endpoints are exempt.
	RequestTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/
	// (cmd/wrtserved -pprof).
	EnablePprof bool
	// LogEntries sizes the /debug/log access-log ring
	// (<= 0: httpx.DefaultLogEntries).
	LogEntries int
	// Logf receives recovered handler panics (nil: log.Printf).
	Logf func(format string, args ...any)
}

// Server is the HTTP/JSON front end over the queue and cache, built on the
// shared internal/httpx surface (request IDs, timeouts, body limits, panic
// recovery, /debug/log, optional pprof).
//
// Endpoints:
//
//	POST /v1/runs      submit a batch of scenarios; per-item job IDs
//	GET  /v1/runs/{id} job status and, when done, the result
//	GET  /healthz      liveness
//	GET  /metrics      text counters (queue, cache, latency quantiles)
//	GET  /debug/log    recent access-log entries (httpx ring buffer)
//	GET  /debug/pprof/ profiling, when Config.EnablePprof
type Server struct {
	queue      *Queue
	cache      *Cache
	batches    *Batches
	handoff    *puller
	maxBatch   int
	workerID   string
	retryAfter time.Duration
	surface    *httpx.Surface
}

// New builds a Server and starts its queue workers.
func New(cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	cache := NewCache(cfg.CacheEntries, cfg.CacheBytes)
	if cfg.Store != nil {
		cache.AttachStore(cfg.Store)
	}
	s := &Server{
		queue:      NewQueue(cache, cfg.QueueCapacity, cfg.Workers),
		cache:      cache,
		handoff:    newPuller(cache, cfg.HandoffRate),
		maxBatch:   cfg.MaxBatch,
		workerID:   cfg.WorkerID,
		retryAfter: cfg.RetryAfter,
		surface: httpx.NewSurface(httpx.Config{
			RequestTimeout: cfg.RequestTimeout,
			MaxBodyBytes:   cfg.MaxBodyBytes,
			Pprof:          cfg.EnablePprof,
			LogEntries:     cfg.LogEntries,
			Logf:           cfg.Logf,
		}),
	}
	s.batches = NewBatches(BatchOptions{
		Backend:    s.queue,
		MaxPoints:  cfg.MaxBatchPoints,
		MaxBatches: cfg.MaxBatches,
		Retryable:  func(err error) bool { return errors.Is(err, ErrQueueFull) },
		Fatal:      func(err error) bool { return errors.Is(err, ErrDraining) },
	})
	mux := s.surface.Mux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mountStoreAPI()
	MountBatchAPI(s.surface, s.batches, cfg.RetryAfter)
	return s
}

// Handler returns the composed HTTP stack (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.surface.Handler() }

// Queue exposes the job queue (metrics, tests, shutdown).
func (s *Server) Queue() *Queue { return s.queue }

// Cache exposes the result cache (metrics, tests).
func (s *Server) Cache() *Cache { return s.cache }

// Batches exposes the batch manager (tests, shutdown).
func (s *Server) Batches() *Batches { return s.batches }

// AccessLog exposes the surface's ring buffer (tests).
func (s *Server) AccessLog() *httpx.Ring { return s.surface.Log() }

// Drain gracefully shuts the queue down (see Queue.Drain), then joins the
// batch waiters — the queue drain leaves every job terminal, so each
// in-flight batch settles with its conservation law intact (unstarted
// shards rejected, aborted ones dropped) and its partial results remain
// streamable. The HTTP listener itself is the caller's to stop
// (http.Server.Shutdown in cmd/wrtserved).
func (s *Server) Drain(timeout time.Duration) DrainReport {
	report := s.queue.Drain(timeout)
	s.batches.Drain(timeout)
	// Stop the shard-handoff puller last: an abandoned pull is re-requested
	// by the coordinator's next rebalance sweep, so nothing is lost.
	s.handoff.stop()
	return report
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	HandleBatchSubmit(w, r, BatchSubmitOptions{
		MaxBatch:   s.maxBatch,
		RetryAfter: s.retryAfter,
		Submit:     s.queue.Submit,
		Fatal:      func(err error) bool { return errors.Is(err, ErrDraining) },
		Reject:     func(err error) bool { return errors.Is(err, ErrQueueFull) },
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.queue.Status(id)
	if !ok {
		httpx.Error(w, r, http.StatusNotFound,
			"unknown run ID (never submitted, or its record and cached result have been evicted; resubmit the scenario)")
		return
	}
	resp := StatusResponse{
		ID: st.ID, Status: st.State.String(), Cached: st.Cached,
		Coalesced: st.Coalesced, TraceEvents: st.TraceEvents,
		ElapsedMs: st.Elapsed.Milliseconds(), Error: st.Err,
	}
	if st.State == StateDone {
		// Bytes evicted under cache pressure leave the state "done" (the
		// work did complete) with JobResult's recovery hint instead.
		if data, err := s.queue.JobResult(r.Context(), id); err == nil {
			resp.Result = data
		} else {
			resp.Error = err.Error()
		}
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := ServiceStats{
		Worker: s.workerID, Queue: s.queue.Stats(), Cache: s.cache.Stats(),
		Handoff: s.handoff.stats(),
	}
	if disk := s.cache.Store(); disk != nil {
		ds := disk.Stats()
		st.Store = &ds
	}
	httpx.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	if s.workerID != "" {
		fmt.Fprintf(w, "worker %s\n", s.workerID)
	}
}

// handleMetrics writes the Prometheus-style text exposition of the queue,
// cache and latency counters through the shared httpx.Metrics writer.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	qs := s.queue.Stats()
	cs := s.cache.Stats()
	var m httpx.Metrics
	if s.workerID != "" {
		m.Help("wrtserved_worker_info", "worker identity within a wrtcoord cluster")
		m.Labeled("wrtserved_worker_info", fmt.Sprintf("id=%q", s.workerID), 1)
	}
	m.Metric("wrtserved_queue_depth", qs.Depth, "jobs admitted but not yet running")
	m.Metric("wrtserved_inflight", qs.Running, "jobs currently executing")
	m.Metric("wrtserved_draining", httpx.BoolMetric(qs.Draining), "1 while graceful shutdown is in progress")
	m.Metric("wrtserved_admitted_total", qs.Admitted, "jobs accepted into the queue")
	m.Metric("wrtserved_completed_total", qs.Completed, "jobs finished with a result")
	m.Metric("wrtserved_failed_total", qs.Failed, "jobs finished with an error")
	m.Metric("wrtserved_dropped_total", qs.Dropped, "jobs abandoned during shutdown")
	m.Metric("wrtserved_rejected_total", qs.Rejected, "submissions refused by admission control")
	m.Metric("wrtserved_coalesced_total", qs.Coalesced, "duplicate submissions folded onto in-flight jobs")
	m.Metric("wrtserved_cache_hits_total", cs.Hits, "admission-path cache hits")
	m.Metric("wrtserved_cache_misses_total", cs.Misses, "admission-path cache misses")
	m.Metric("wrtserved_cache_evictions_total", cs.Evictions, "results evicted by LRU bounds")
	m.Metric("wrtserved_cache_entries", cs.Entries, "results currently cached")
	m.Metric("wrtserved_cache_bytes", cs.Bytes, "bytes of cached result payload")
	m.Metric("wrtserved_cache_hit_ratio", fmt.Sprintf("%.6f", cs.HitRatio()), "hits / (hits + misses)")
	m.Metric("wrtserved_cache_oversized_total", cs.Oversized, "results rejected from RAM for exceeding the byte bound")
	if disk := s.cache.Store(); disk != nil {
		ds := disk.Stats()
		m.Metric("wrtserved_store_hits_total", cs.DiskHits, "cache lookups served by the durable store")
		m.Metric("wrtserved_store_entries", ds.Entries, "results in the durable store")
		m.Metric("wrtserved_store_bytes", ds.Bytes, "disk bytes used by the durable store (payload + footers)")
		m.Metric("wrtserved_store_puts_total", ds.Puts, "results written through to disk")
		m.Metric("wrtserved_store_put_errors_total", ds.PutErrors, "failed durable writes (result stays RAM-only)")
		m.Metric("wrtserved_store_evictions_total", ds.Evictions, "store entries evicted by the disk byte bound")
		m.Metric("wrtserved_store_corruptions_total", ds.Corruptions, "store entries quarantined for failing validation")
	}
	hs := s.handoff.stats()
	m.Metric("wrtserved_handoff_pulled_total", hs.Pulled, "shard-handoff keys pulled from peers")
	m.Metric("wrtserved_handoff_skipped_total", hs.Skipped, "shard-handoff keys already present locally")
	m.Metric("wrtserved_handoff_errors_total", hs.Errors, "shard-handoff pulls that failed")
	m.Metric("wrtserved_handoff_bytes_total", hs.Bytes, "shard-handoff payload bytes pulled")
	m.Metric("wrtserved_handoff_requests_total", hs.Requests, "accepted POST /v1/store/pull requests")
	bsStats := s.batches.Stats()
	m.Metric("wrtserved_batches_created_total", bsStats.Created, "batches accepted by POST /v1/batches")
	m.Metric("wrtserved_batches_active", bsStats.Active, "retained batches still running")
	for _, ls := range s.queue.LatencySnapshot() {
		label := fmt.Sprintf(`protocol=%q`, ls.Protocol)
		m.Help("wrtserved_job_latency_ms", "completed-job wall-clock latency (internal/stats histogram)")
		m.Labeled("wrtserved_job_latency_ms_count", label, ls.N)
		m.Labeled("wrtserved_job_latency_ms_mean", label, fmt.Sprintf("%.3f", ls.MeanMs))
		m.Labeled("wrtserved_job_latency_ms", label+`,quantile="0.5"`, ls.P50Ms)
		m.Labeled("wrtserved_job_latency_ms", label+`,quantile="0.9"`, ls.P90Ms)
		m.Labeled("wrtserved_job_latency_ms", label+`,quantile="0.99"`, ls.P99Ms)
		m.Labeled("wrtserved_job_latency_ms_max", label, ls.MaxMs)
		m.Labeled("wrtserved_job_latency_ms_overflowed", label, ls.Overflowed)
	}
	m.WriteTo(w)
}
