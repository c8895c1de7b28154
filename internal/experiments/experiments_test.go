package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// short keeps every entry's runs small; the shapes, not the verdicts, are
// under test here (EXPERIMENTS.md pins the full-length outcome).
var short = Params{Seed: 1, Dur: 3000, Jobs: 2}

func TestRegistryCoversEachExperimentOnce(t *testing.T) {
	seen := map[string]int{}
	benches := map[string]string{}
	for _, e := range registry {
		for _, id := range strings.Split(e.ID, "+") {
			seen[id]++
		}
		if len(e.Bench) == 0 {
			t.Errorf("%s: no bench entry point", e.ID)
		}
		for _, b := range e.Bench {
			if prev, dup := benches[b]; dup {
				t.Errorf("bench %s listed by both %s and %s", b, prev, e.ID)
			}
			benches[b] = e.ID
			if got, ok := ByBench(b); !ok || got != e {
				t.Errorf("ByBench(%q) does not return %s", b, e.ID)
			}
		}
	}
	for i := 1; i <= 16; i++ {
		id := fmt.Sprintf("E%d", i)
		if seen[id] != 1 {
			t.Errorf("%s covered %d times, want exactly once", id, seen[id])
		}
		delete(seen, id)
	}
	for id := range seen {
		t.Errorf("unexpected experiment ID %q", id)
	}
}

func TestEveryEntryRunsAtShortDuration(t *testing.T) {
	for _, e := range registry {
		out, err := e.Run(short)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(out.Rows) < 2 {
			t.Errorf("%s: %d table rows, want a header and at least one row", e.ID, len(out.Rows))
		}
		for i, r := range out.Rows {
			if len(r) != len(out.Rows[0]) {
				t.Errorf("%s: row %d has %d columns, header has %d", e.ID, i, len(r), len(out.Rows[0]))
			}
		}
		if out.Verdict == "" || len(out.Metrics) == 0 {
			t.Errorf("%s: empty verdict note or no metrics", e.ID)
		}
	}
}

func TestReportIndependentOfWorkers(t *testing.T) {
	render := func(jobs int) []byte {
		p := short
		p.Jobs = jobs
		var buf bytes.Buffer
		if err := Report(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if serial, parallel := render(1), render(4); !bytes.Equal(serial, parallel) {
		t.Fatalf("report differs between Jobs 1 and Jobs 4:\n%s\n---\n%s", serial, parallel)
	}
}
