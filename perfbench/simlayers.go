package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/store"
)

// nproc is the host's CPU count: the sweep's job count, and the total
// simulation workers across every service fleet.
var nproc = runtime.NumCPU()

// simAcc accumulates the simulator layers' per-job measurements, taken from
// outside: the runner's Setup hook marks the end of the (pooled) build, the
// progress callback marks the end of the job, and the counters come from
// the public Result and Network.Kernel.
type simAcc struct {
	build  samples
	job    samples
	simNs  map[string]int64
	slotsP map[string]int64
	slots  int64
	fired  uint64
	sent   int64
	coll   int64
	checks int64
	busy   time.Duration
	runs   int64
	wall   time.Duration
	// allocsPerRun is measured separately, untraced (see allocsPerRun).
	allocsPerRun float64
}

func newSimAcc() *simAcc {
	return &simAcc{simNs: map[string]int64{}, slotsP: map[string]int64{}}
}

// runGrid runs jobs through the runner with jobs = nproc and the caller's
// pool. When acc is non-nil it also records spans under trace (a
// "sweep.op" root of the given class) and feeds the simulator layer
// counters.
func runGrid(jobs []runner.Job, pool *runner.Pool, tr *tracer, acc *simAcc, trace, class string) []runner.Result {
	opts := runner.Options{Jobs: nproc, Pool: pool}
	if acc == nil {
		return runner.Run(jobs, opts)
	}
	n := len(jobs)
	setupAt := make([]int64, n)
	nets := make([]*wrtring.Network, n)
	traced := make([]runner.Job, n)
	for i, j := range jobs {
		j.Setup = func(net *wrtring.Network) error {
			setupAt[i] = tr.now()
			nets[i] = net
			return nil
		}
		traced[i] = j
	}
	var kids []span
	opts.OnProgress = func(_, _ int, r runner.Result) {
		end := tr.now()
		start := end - int64(r.Elapsed)
		if r.Err != nil || r.Res == nil {
			return
		}
		job := len(kids)
		kids = append(kids,
			span{Name: "runner.job", Parent: -1, Start: start, End: end},
			span{Name: "wrtring.build", Parent: job, Start: start, End: setupAt[r.Index]},
			span{Name: "wrtring.sim", Parent: job, Start: setupAt[r.Index], End: end})
		proto := r.Job.Scenario.Protocol.String()
		acc.build.add(time.Duration(setupAt[r.Index] - start))
		acc.simNs[proto] += end - setupAt[r.Index]
		acc.slotsP[proto] += r.Res.Slots
		acc.slots += r.Res.Slots
		acc.fired += nets[r.Index].Kernel.Fired()
		acc.sent += r.Res.RadioSent
		acc.coll += r.Res.RadioCollisions
		acc.checks += r.Res.InvariantChecks
		acc.busy += r.Elapsed
		acc.job.add(r.Elapsed)
		acc.runs++
		nets[r.Index] = nil
	}
	start := tr.now()
	t0 := time.Now()
	out := runner.Run(traced, opts)
	acc.wall += time.Since(t0)
	tr.addTree(span{Trace: trace, Name: "sweep.op", Status: class, Start: start, End: tr.now()}, kids)
	return out
}

// allocsPerRun runs the jobs once more through the runner with no hooks
// and returns the process's allocations per run across that call.
func allocsPerRun(jobs []runner.Job, pool *runner.Pool) float64 {
	m0 := readMem()
	runner.Run(jobs, runner.Options{Jobs: nproc, Pool: pool})
	return ratio(float64(readMem().since(m0).mallocs), float64(len(jobs)))
}

// layers writes the simulator layer metrics.
func (a *simAcc) layers(m map[string]float64) {
	m["wrtring.build_us.p50"] = a.build.quantile(0.5) / nsPerUs
	for _, p := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
		m["wrtring.sim_ns_per_slot."+p.String()] = ratio(float64(a.simNs[p.String()]), float64(a.slotsP[p.String()]))
	}
	m["sim.events_per_slot"] = ratio(float64(a.fired), float64(a.slots))
	m["radio.frames_per_slot"] = ratio(float64(a.sent), float64(a.slots))
	m["radio.collision_ratio"] = ratio(float64(a.coll), float64(a.sent))
	m["core.invariant_checks_per_slot"] = ratio(float64(a.checks), float64(a.slots))
	m["runner.allocs_per_run"] = a.allocsPerRun
	m["runner.busy_share"] = ratio(a.busy.Seconds(), a.wall.Seconds()*float64(nproc))
}

// encodeResult is the byte form the service returns for a result:
// json.Marshal of the wrtring.Result.
func encodeResult(r *wrtring.Result) ([]byte, error) { return json.Marshal(r) }

type digest [sha256.Size]byte

// expectedResults computes, with fresh builds and wrtring.Run, the encoded
// result of every scenario, nproc at a time.
func expectedResults(scenarios []wrtring.Scenario) ([]digest, []error) {
	out := make([]digest, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := wrtring.Run(scenarios[i])
				if err == nil {
					var b []byte
					b, err = encodeResult(res)
					out[i] = sha256.Sum256(b)
				}
				errs[i] = err
			}
		}()
	}
	for i := range scenarios {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errs
}

// replayKeys times serve.Key on up to limit of the workload's scenarios.
func replayKeys(scenarios []wrtring.Scenario, limit int) (float64, error) {
	var s samples
	for i, sc := range scenarios {
		if i == limit {
			break
		}
		t := time.Now()
		if _, err := serve.Key(sc); err != nil {
			return 0, err
		}
		s.add(time.Since(t))
	}
	return s.quantile(0.5) / nsPerUs, nil
}

// replayStore times store.Put and store.Get of the workload's payloads in a
// scratch store with the daemon's default sync setting (fsync on).
func replayStore(dir string, keys []string, payloads [][]byte) (putUs, getUs float64, err error) {
	st, err := store.Open(filepath.Join(dir, "replay-store"), store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(st.Dir())
	var put, get samples
	for i, k := range keys {
		t := time.Now()
		if err := st.Put(k, payloads[i]); err != nil {
			return 0, 0, err
		}
		put.add(time.Since(t))
	}
	for i, k := range keys {
		t := time.Now()
		b, ok := st.Get(k)
		get.add(time.Since(t))
		if !ok || string(b) != string(payloads[i]) {
			return 0, 0, fmt.Errorf("store replay: %s read back wrong", k)
		}
	}
	return put.quantile(0.5) / nsPerUs, get.quantile(0.5) / nsPerUs, nil
}
