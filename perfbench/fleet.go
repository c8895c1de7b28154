package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/rtnet/wrtring/internal/cluster"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/store"
)

// Fleet sizes. Simulation workers across a fleet total nproc.
const (
	// directCacheEntries bounds the direct worker's RAM cache below the
	// hot pool, so hits are served mostly by the disk tier.
	directCacheEntries = 32
	// clusterCacheEntries holds the whole hot pool in each worker's RAM,
	// so cluster hits go through the coordinator's done-records and the
	// result proxy, not a disk tier.
	clusterCacheEntries = 4096
	drainTimeout        = 10 * time.Second
)

// fleet is a set of servers started in this process behind loopback
// listeners. front is the server clients talk to: the worker for direct,
// the coordinator for cluster and batch.
type fleet struct {
	front     string
	frontTap  *tap
	workers   []*serve.Server
	taps      []*tap // one per worker
	coord     *cluster.Coordinator
	store     *store.Store
	listeners []*http.Server
	wg        sync.WaitGroup
}

var quietLog = log.New(os.Stderr, "perfbench: ", 0).Printf

// listen serves h on a loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.listeners = append(f.listeners, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			quietLog("serve %s: %v", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// startDirect starts one worker with nproc simulation workers and a disk
// store at the daemon's default fsync setting.
func startDirect(dir string) (*fleet, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	f := &fleet{store: st}
	srv := serve.New(serve.Config{Workers: nproc, CacheEntries: directCacheEntries, Store: st, Logf: quietLog})
	f.workers = []*serve.Server{srv}
	t := &tap{prefix: "worker", next: srv.Handler()}
	f.taps = []*tap{t}
	f.frontTap = t
	if f.front, err = f.listen(t); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// startCluster starts a coordinator over two workers, each with one
// simulation worker, a RAM cache larger than the hot pool and no store.
func startCluster() (*fleet, error) {
	f := &fleet{}
	var specs []cluster.WorkerSpec
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{Workers: max(1, nproc/2), CacheEntries: clusterCacheEntries, Logf: quietLog})
		f.workers = append(f.workers, srv)
		t := &tap{prefix: "worker", next: srv.Handler()}
		f.taps = append(f.taps, t)
		url, err := f.listen(t)
		if err != nil {
			f.close()
			return nil, err
		}
		specs = append(specs, cluster.WorkerSpec{ID: fmt.Sprintf("w%d", i+1), URL: url})
	}
	coord, err := cluster.New(cluster.Config{Workers: specs, Logf: quietLog})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	f.frontTap = &tap{prefix: "coord", next: coord.Handler()}
	if f.front, err = f.listen(f.frontTap); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setTracer turns span recording on (tr non-nil) or off on every tap.
func (f *fleet) setTracer(tr *tracer) {
	f.frontTap.tr.Store(tr)
	for _, t := range f.taps {
		t.tr.Store(tr)
	}
}

func (f *fleet) workerCalls() int64 {
	var n int64
	for _, t := range f.taps {
		n += t.calls.Load()
	}
	return n
}

func (f *fleet) cacheStats() serve.CacheStats {
	var s serve.CacheStats
	for _, w := range f.workers {
		c := w.Cache().Stats()
		s.Hits += c.Hits
		s.Misses += c.Misses
		s.DiskHits += c.DiskHits
		s.Evictions += c.Evictions
	}
	return s
}

func (f *fleet) queueDepth() int {
	n := 0
	for _, w := range f.workers {
		n += w.Queue().Stats().Depth
	}
	return n
}

// drain shuts the fleet down in order — coordinator, workers, listeners —
// and checks the conservation law admitted = completed + failed + dropped
// on the coordinator and on every queue, with nothing failed or dropped.
func (f *fleet) drain(o *outcome) {
	if f.coord != nil {
		f.coord.Drain(drainTimeout)
		s := f.coord.Stats()
		if s.Admitted != s.Completed+s.Failed+s.Dropped || s.Failed+s.Dropped != 0 {
			o.problem("coordinator accounting: admitted %d, completed %d, failed %d, dropped %d",
				s.Admitted, s.Completed, s.Failed, s.Dropped)
		}
	}
	for i, w := range f.workers {
		w.Drain(drainTimeout)
		s := w.Queue().Stats()
		if s.Admitted != s.Completed+s.Failed+s.Dropped || s.Failed+s.Dropped != 0 {
			o.problem("worker %d queue accounting: admitted %d, completed %d, failed %d, dropped %d",
				i, s.Admitted, s.Completed, s.Failed, s.Dropped)
		}
	}
	f.close()
}

// close stops the listeners and waits for their goroutines.
func (f *fleet) close() {
	for _, l := range f.listeners {
		l.Close()
	}
	f.wg.Wait()
	if f.coord != nil {
		f.coord.Drain(0)
	}
	for _, w := range f.workers {
		w.Drain(0)
	}
	if f.store != nil {
		os.RemoveAll(f.store.Dir())
	}
}
