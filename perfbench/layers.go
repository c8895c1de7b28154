package main

import (
	"strings"

	wrtring "github.com/rtnet/wrtring"
)

// layerNames lists every per-layer metric. A traced run prints all of them
// on every workload; a layer the workload does not exercise reads 0, which
// is that layer's predicted-unchanged case.
var layerNames = []string{
	"wrtring.build_us.p50",
	"wrtring.sim_ns_per_slot.wrt-ring",
	"wrtring.sim_ns_per_slot.tpt",
	"sim.events_per_slot",
	"radio.frames_per_slot",
	"radio.collision_ratio",
	"core.invariant_checks_per_slot",
	"runner.allocs_per_run",
	"runner.busy_share",
	"serve.key_us.p50",
	"httpx.submit_us.p50",
	"httpx.status_us.p50",
	"serve.client_overhead_us.p50",
	"serve.status_polls_per_run",
	"serve.queue_depth.mean",
	"serve.cache_hit_ratio",
	"serve.disk_hit_share",
	"serve.evictions_per_run",
	"serve.result_bytes.mean",
	"store.get_us.p50",
	"store.put_us.p50",
	"store.puts_per_miss",
	"cluster.worker_calls_per_run",
	"cluster.dispatch_wait_ms.p50",
	"cluster.poll_lag_ms.p50",
	"cluster.hop_ms.p50",
	"cluster.proxy_us.p50",
	"cluster.rejected_ratio",
	"batch.worker_calls_per_point",
	"batch.line_lag_ms.p50",
	"batch.cache_hit_share",
	"batch.bytes_per_line",
	"batch.grid_ms.p50",
	"batch.first_line_ms.p50",
	"go.alloc_bytes_per_run",
	"trace.overhead_share.light",
	"trace.overhead_share.heavy",
	"ledger.gap_share.light",
	"ledger.gap_share.heavy",
}

func classOf(heavy bool) string {
	if heavy {
		return "heavy"
	}
	return "light"
}

// storeReplayPoints bounds the payloads replayed through a scratch store.
const storeReplayPoints = 64

// replayLayers measures the layers every workload replays the same way on
// its own scenarios and payloads: serve.Key, and store Put/Get in a scratch
// store.
func replayLayers(o *outcome, cfg config, scen []wrtring.Scenario, keys []string, payloads [][]byte) {
	m := o.layers
	if us, err := replayKeys(scen, 1000); err != nil {
		o.problem("serve.Key replay: %v", err)
	} else {
		m["serve.key_us.p50"] = us
	}
	n := min(len(keys), storeReplayPoints)
	put, get, err := replayStore(cfg.workdir, keys[:n], payloads[:n])
	if err != nil {
		o.problem("%v", err)
	}
	m["store.put_us.p50"], m["store.get_us.p50"] = put, get
}

// finishLayers adds tracing overhead (traced against untraced medians) and
// the ledger gaps, and writes zero for every layer the workload leaves
// untouched.
func finishLayers(o *outcome) {
	m := o.layers
	if o.traced != nil {
		for _, c := range []struct {
			name   string
			un, tr *samples
		}{{"light", &o.main.light, &o.traced.light}, {"heavy", &o.main.heavy, &o.traced.heavy}} {
			m["trace.overhead_share."+c.name] = ratio(c.tr.quantile(0.5), c.un.quantile(0.5)) - 1
		}
	}
	for _, r := range o.ledger {
		m["ledger.gap_share."+strings.TrimSuffix(r.Metric, "_p50_ms")] = ratio(r.GapMs, r.MedianMs)
	}
	for _, k := range layerNames {
		if _, ok := m[k]; !ok {
			m[k] = 0
		}
	}
}
