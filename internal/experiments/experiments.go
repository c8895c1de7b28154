// Package experiments is the single registry of the reproduction index
// E1–E16 (see DESIGN.md §4): every experiment's scenarios, fault hooks,
// table and verdict are defined here exactly once. cmd/wrtexperiments
// renders the registry into EXPERIMENTS.md, and the root BenchmarkE*
// benchmarks run the same entries at the same defaults, so the report and
// the benchmarks cannot drift apart.
//
// Each entry dispatches its independent seeded runs through the shared
// batch runner across Params.Jobs workers. Runs are per-seed deterministic
// and results come back in submission order, so an entry's outcome — and
// the rendered report — does not depend on the worker count.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
)

// Params are the knobs every entry shares.
type Params struct {
	Seed uint64 // base seed of every run
	Dur  int64  // slots per run
	Jobs int    // parallel simulation workers; 1 runs serially
}

// Defaults are the parameters EXPERIMENTS.md is generated with.
func Defaults() Params {
	return Params{Seed: 1, Dur: 40_000, Jobs: runtime.NumCPU()}
}

// Entry is one experiment of the reproduction index.
type Entry struct {
	// ID names the experiment; combined experiments join IDs with "+"
	// ("E2+E3").
	ID       string
	Artefact string // the paper figure, theorem or section reproduced
	Claim    string // the paper's claim, as the report quotes it
	// Intro, when set, is a paragraph printed between the claim and the
	// table.
	Intro string
	// Bench names the entry points that regenerate the row: the root
	// BenchmarkE* functions that run this entry.
	Bench []string
	Run   func(Params) (*Outcome, error)
}

// Outcome is what one entry measured.
type Outcome struct {
	// Rows is the result table; Rows[0] is the header.
	Rows [][]string
	// Notes, when set, is Markdown printed between the table and the
	// verdict.
	Notes string
	// Failures lists every verdict condition that did not hold; the claim
	// reproduces when it is empty.
	Failures []string
	// Verdict is the one-line reading of the result.
	Verdict string
	// Metrics are the named quantities the benchmarks report.
	Metrics []Metric
}

// Metric is one named measured quantity. Name doubles as the benchmark
// unit, so it holds no whitespace.
type Metric struct {
	Name  string
	Value float64
}

// Reproduced reports whether every verdict condition held.
func (o *Outcome) Reproduced() bool { return len(o.Failures) == 0 }

// require records a failed verdict condition.
func (o *Outcome) require(ok bool, format string, args ...any) {
	if !ok {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func (o *Outcome) row(cols ...string) { o.Rows = append(o.Rows, cols) }

func (o *Outcome) metric(name string, v float64) {
	o.Metrics = append(o.Metrics, Metric{Name: name, Value: v})
}

// ByBench returns the entry regenerated by the named bench entry point.
func ByBench(name string) (*Entry, bool) {
	for _, e := range registry {
		for _, b := range e.Bench {
			if b == name {
				return e, true
			}
		}
	}
	return nil, false
}

// Report runs every entry and writes the Markdown report (EXPERIMENTS.md).
func Report(w io.Writer, p Params) error {
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs. measured

Generated by ` + "`go run ./cmd/wrtexperiments`" + `. All quantities in slot units
(the paper normalises every time quantity to the slot duration). The paper's
evaluation (§3) is analytical — it reports bounds and orderings, not testbed
numbers — so for each claim this table shows the closed form, the measured
value from our simulator, and whether the claimed *shape* (who wins, by
what factor, which bound holds) reproduces. The bench target column names
the ` + "`go test -bench`" + ` entry that regenerates the row.

`)
	for _, e := range registry {
		out, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		writeEntry(&b, e, out)
	}
	fmt.Fprintf(&b, `## Reading notes

* **Detection latency vs. bound (E4):** the timers obey the SAT_TIME /
  2·TTRT bounds from the *last control-signal sighting*; the measured
  latency is referenced to the fault-injection instant, which adds the time
  the signal needed to reach the failure point. It can therefore slightly
  exceed the per-station bound without contradicting it.
* **Bound tightness (E5–E8):** the paper's worst case packs every
  adversarial choice into one rotation; symmetric saturated workloads reach
  roughly a third of it. The theorems only claim an upper bound, which
  holds in every run and configuration we measured.
* Runs are fully deterministic given the seed printed above (seed=%d, dur=%d).
`, p.Seed, p.Dur)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeEntry(b *strings.Builder, e *Entry, out *Outcome) {
	fmt.Fprintf(b, "## %s — %s\n\n**Paper claim.** %s\n\n", e.ID, e.Artefact, e.Claim)
	if e.Intro != "" {
		b.WriteString(e.Intro + "\n\n")
	}
	for i, r := range out.Rows {
		writeRow(b, r)
		if i == 0 {
			sep := make([]string, len(r))
			for j := range sep {
				sep[j] = "---"
			}
			writeRow(b, sep)
		}
	}
	if out.Notes != "" {
		b.WriteString("\n" + out.Notes)
	}
	mark := "REPRODUCED"
	if !out.Reproduced() {
		mark = "NOT REPRODUCED"
	}
	fmt.Fprintf(b, "\n**Verdict: %s** — %s. *(bench: `%s`)*\n\n",
		mark, out.Verdict, strings.Join(e.Bench, ", "))
}

func writeRow(b *strings.Builder, cols []string) {
	b.WriteString("| " + strings.Join(cols, " | ") + " |\n")
}

// runJobs dispatches jobs across the worker pool and returns the first
// per-job error.
func runJobs(p Params, jobs []runner.Job) ([]runner.Result, error) {
	rs := runner.Run(jobs, runner.Options{Jobs: p.Jobs})
	for _, r := range rs {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return rs, nil
}

// runAll is runJobs for bare scenarios.
func runAll(p Params, scenarios ...wrtring.Scenario) ([]*wrtring.Result, error) {
	rs := runner.RunScenarios(scenarios, runner.Options{Jobs: p.Jobs})
	out := make([]*wrtring.Result, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Res
	}
	return out, nil
}

// sat saturates every station with Premium+BestEffort toward dest.
func sat(p Params, proto wrtring.Protocol, n int, dest wrtring.DestSpec) wrtring.Scenario {
	return wrtring.Scenario{
		Protocol: proto, N: n, L: 2, K: 2, Seed: p.Seed, Duration: p.Dur,
		Sources: []wrtring.Source{
			{Station: wrtring.AllStations, Class: wrtring.Premium, Dest: dest, Preload: int(p.Dur)},
			{Station: wrtring.AllStations, Class: wrtring.BestEffort, Dest: dest, Preload: int(p.Dur)},
		},
	}
}
