package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.count() != 100 {
		t.Errorf("count = %d, want 100", s.count())
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {100, 0.5, 50}, {99, 0.9, 9}, {10, 0.9, 1}, {0, 0.9, 0}, {1, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	var empty samples
	if empty.quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimesAttributeEveryInstantOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 50},
		{ID: 2, Name: "b", Parent: 1, Start: 20, End: 30},
		{ID: 3, Name: "c", Parent: 0, Start: 60, End: 70},
	}
	st := selfTimes(spans[0], spans[1:], depths(spans))
	want := map[string]int64{"root": 50, "a": 30, "b": 10, "c": 10}
	for k, v := range want {
		if st[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, st[k], v)
		}
	}
}

// fakeServer answers the run API with a scripted submit status code and a
// scripted result.
func fakeServer(t *testing.T, submitCode int, result string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
			status := "cached"
			if submitCode != http.StatusOK {
				status = "rejected"
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(submitCode)
			fmt.Fprintf(w, `{"runs":[{"id":"v1-x","status":%q}]}`, status)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/runs/"):
			fmt.Fprintf(w, `{"id":"v1-x","status":"done","result":%s}`, result)
		default:
			http.NotFound(w, r)
		}
	}))
}

func TestForcedRejectionCountsAsFailed(t *testing.T) {
	srv := fakeServer(t, http.StatusTooManyRequests, "{}")
	defer srv.Close()
	o := &outcome{}
	w := &window{}
	seeds := newSeedSpace(1)
	hot := []wrtring.Scenario{serviceScenario(wrtring.WRTRing, seeds.hot(0))}
	ops := serviceWindow(o, w, &fleet{front: srv.URL}, config{seed: 1}, seeds, hot, 20*time.Millisecond, nil, 1)
	if len(ops) == 0 || o.attempted != int64(len(ops)) {
		t.Fatalf("attempted %d for %d ops", o.attempted, len(ops))
	}
	if o.failed != o.attempted || w.runs != 0 {
		t.Errorf("failed %d of %d attempted with %d runs; every 429 must count as failed", o.failed, o.attempted, w.runs)
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	s := serviceScenario(wrtring.WRTRing, 7)
	res, err := wrtring.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := encodeResult(res)
	bad := strings.Replace(string(good), `"Slots":2000`, `"Slots":2001`, 1)
	if bad == string(good) {
		t.Fatal("corruption did not change the payload")
	}
	for _, c := range []struct {
		payload string
		failed  int
	}{{string(good), 0}, {bad, 1}} {
		srv := fakeServer(t, http.StatusOK, c.payload)
		out := newWireClient(srv.URL).run(context.Background(), submitBody(mustEncode(t, s)), nil, "light")
		srv.Close()
		if out.err != nil {
			t.Fatal(out.err)
		}
		o := &outcome{}
		if n := checkDigests(o, []wrtring.Scenario{s}, []digest{out.sum}); n != c.failed {
			t.Errorf("checkDigests = %d failed, want %d (problems %v)", n, c.failed, o.problems)
		}
	}
	if sha256.Sum256(good) == sha256.Sum256([]byte(bad)) {
		t.Fatal("digests collide")
	}
}

func mustEncode(t *testing.T, s wrtring.Scenario) []byte {
	t.Helper()
	b, err := wrtring.EncodeScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryWorkload runs each workload at a minimal length, untraced
// and traced, and asserts that every metric BENCHMARK.json names is printed
// with its unit and that no operation failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and simulates")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		run, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			o := run(config{seed: 5, window: 400 * time.Millisecond, traced: traced, workdir: t.TempDir()})
			rep, _ := render(o, traced)
			for _, p := range o.problems {
				t.Errorf("%s traced=%v: %s", wl.Name, traced, p)
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed", wl.Name, traced, rep.Failed, rep.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", wl.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	h := stampHost()
	other := h
	other.CPU = "some other CPU"
	write := func(dir string, hst host) {
		rec := record{Host: hst, Workload: "direct", Report: report{Correct: true,
			Metrics: map[string]metric{"runs_per_s": {Value: 100, Unit: "runs/s"}}}}
		b, _ := json.Marshal(rec)
		if err := os.WriteFile(dir+"/r.json", b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(a, h)
	write(b, h)
	var out strings.Builder
	if code := compareMain([]string{a, b}, &out); code != 0 || !strings.Contains(out.String(), "direct/runs_per_s") {
		t.Fatalf("same-host compare: code %d, output %q", code, out.String())
	}
	write(b, other)
	if code := compareMain([]string{a, b}, &out); code == 0 {
		t.Fatal("compare accepted results from different hosts")
	}
}
