// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives four workloads against the real public entry points — the
// runner for in-process sweeps, and serve/cluster servers started in this
// process behind loopback listeners for the service workloads — checks every
// output against a local wrtring.Run, and prints its metrics as one JSON
// object on the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload direct --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare perfbench/out/results/a perfbench/out/results/b
//
// With --trace 1 the run measures half its window untraced and half traced,
// prints the per-layer metrics and the layer ledger, and writes the spans to
// perfbench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind: stores, spans, results.
const outDir = "perfbench/out"

// setupReps is how many times a run repeats its set-up; setup_s is their
// median, so one slow start does not move the metric.
const setupReps = 5

type config struct {
	seed    uint64
	window  time.Duration
	traced  bool
	workdir string
}

// window is what one measured interval produced.
type window struct {
	elapsed      time.Duration
	runs         int64 // completed results (batch: points)
	slots        int64 // simulated slots behind results computed in the window
	light, heavy samples
}

// outcome is a workload's full result before it is rendered.
type outcome struct {
	setup     []float64 // seconds, one per repetition
	attempted int64
	failed    int64
	problems  []string
	main      window  // untraced window
	traced    *window // traced window (--trace 1 only)
	layers    map[string]float64
	ledger    []ledgerRow
	spans     []span
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(cfg config) *outcome{
	"sweep":   runSweep,
	"direct":  runDirect,
	"cluster": runCluster,
	"batch":   runBatch,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "workload: sweep | direct | cluster | batch")
	seed := flag.Uint64("seed", 1, "workload seed; every scenario is generated from it")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: per-layer metrics, spans and the layer ledger")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sweep|direct|cluster|batch, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, workdir: work}
	host := stampHost()
	fmt.Printf("host: %s\n", host)
	o := run(cfg)
	os.RemoveAll(work)

	rep, counts := render(o, cfg.traced)
	rec := record{Host: host, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Report: rep, Samples: counts, Ledger: o.ledger, Problems: o.problems}
	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)
	if cfg.traced {
		if err := writeSpans(filepath.Join(outDir, base+".spans.jsonl"), o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		printLedger(os.Stdout, o.ledger)
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	printMetrics(os.Stdout, rep.Metrics, counts)
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(outDir, "results", base+".json"), b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		}
	}
	if !rep.Correct {
		// A run that fails a check reports no numbers.
		rep.Metrics = map[string]metric{}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// render turns an outcome into the contract's report: the end-to-end
// metrics untraced, the per-layer metrics traced. counts gives each timing's
// sample count.
func render(o *outcome, traced bool) (report, map[string]int) {
	rep := report{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: map[string]metric{}}
	counts := map[string]int{"setup_s": len(o.setup)}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Correct = false
	}
	if traced {
		for k, v := range o.layers {
			rep.Metrics[k] = metric{v, layerUnit(k)}
		}
		return rep, counts
	}
	w := &o.main
	secs := w.elapsed.Seconds()
	rep.Metrics["setup_s"] = metric{median(o.setup), "s"}
	rep.Metrics["runs_per_s"] = metric{ratio(float64(w.runs), secs), "runs/s"}
	rep.Metrics["slots_per_s"] = metric{ratio(float64(w.slots), secs), "slots/s"}
	for _, c := range []struct {
		name string
		s    *samples
	}{{"light", &w.light}, {"heavy", &w.heavy}} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			key := c.name + "_" + q.suffix + "_ms"
			rep.Metrics[key] = metric{c.s.quantile(q.q) / nsPerMs, "ms"}
			counts[key] = c.s.count()
			if n := beyond(c.s.count(), q.q); n < 10 {
				// Too few samples for this percentile to repeat: a warning,
				// not a failed check — the outputs are still correct.
				fmt.Fprintf(os.Stderr, "perfbench: warning: %s has only %d samples beyond it\n", key, n)
			}
		}
	}
	return rep, counts
}

func printMetrics(w io.Writer, m map[string]metric, counts map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := ""
		if c, ok := counts[k]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-40s %14.4f %s%s\n", k, m[k].Value, m[k].Unit, n)
	}
}

func printLedger(w io.Writer, rows []ledgerRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "ledger %s: median %.3f ms over %d requests\n", r.Metric, r.MedianMs, r.Samples)
		names := make([]string, 0, len(r.LayersMs))
		for k := range r.LayersMs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  self %-28s %10.3f ms\n", k, r.LayersMs[k])
		}
		names = names[:0]
		for k := range r.ReplayedMs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  replayed %-24s %10.3f ms\n", k, r.ReplayedMs[k])
		}
		fmt.Fprintf(w, "  gap %.3f ms — finding: %s\n", r.GapMs, r.Finding)
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_ns_per_slot"):
		return "ns/slot"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_per_slot"):
		return "1/slot"
	case strings.Contains(name, "_per_"):
		return "count"
	case strings.Contains(name, "depth"):
		return "jobs"
	}
	return "ratio"
}

// memDelta measures allocation across a window.
type memDelta struct{ mallocs, bytes uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}
