package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/sweep"
)

func testGrid() sweep.Grid {
	return sweep.Grid{
		Base: fastScenario(1),
		Axes: []sweep.Axis{
			sweep.AxisN([]int{4, 6}),
			sweep.AxisSeeds([]uint64{1, 2}),
			sweep.AxisProtocols(),
		},
	}
}

func waitBatch(t *testing.T, c *Client, id string, want string) *BatchStatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.BatchStatus(context.Background(), id)
		if err != nil {
			t.Fatalf("batch status: %v", err)
		}
		if st.Status == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("batch %s never reached %q", id, want)
	return nil
}

// TestBatchEndToEnd is the subsystem's acceptance test on a single node: a
// grid submitted to POST /v1/batches streams results byte-identical to the
// same grid run locally via sweep.Run, and a second submission of the same
// spec completes with zero new simulations — every shard a cache hit. The
// seeds axis repeats a value, so the grid coalesces onto itself: every
// repeated point must still stream its own line.
func TestBatchEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 4, QueueCapacity: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	grid := testGrid()
	grid.Axes[1] = sweep.AxisSeeds([]uint64{7, 7, 8})
	const repeats = 4 // the second seed 7 under n × protocol
	points, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	local := sweep.Run(points, 4)

	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Expanded != int64(len(points)) {
		t.Fatalf("expanded %d points, want %d", sub.Expanded, len(points))
	}

	lines := make(map[int64]BatchResultLine)
	n, err := client.StreamBatchResults(context.Background(), sub.ID, func(l BatchResultLine) error {
		lines[l.Index] = l
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n != len(points) {
		t.Fatalf("streamed %d lines, want %d", n, len(points))
	}
	for i, o := range local {
		line, ok := lines[int64(i)]
		if !ok {
			t.Fatalf("no result line for shard %d", i)
		}
		if line.Status != ShardCompleted {
			t.Fatalf("shard %d: status %q (%s)", i, line.Status, line.Error)
		}
		if line.Name != o.Point.Name {
			t.Fatalf("shard %d named %q, want %q", i, line.Name, o.Point.Name)
		}
		want, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Result, want) {
			t.Fatalf("shard %d (%s): streamed result differs from local run:\n got %s\nwant %s",
				i, line.Name, line.Result, want)
		}
	}

	st := waitBatch(t, client, sub.ID, "done")
	if st.Completed != st.Expanded || st.Failed+st.Dropped+st.Rejected != 0 {
		t.Fatalf("first pass accounting off: %+v", st)
	}
	if got := st.Completed + st.Failed + st.Dropped + st.Rejected; got != st.Expanded {
		t.Fatalf("conservation broken: %d terminal of %d: %+v", got, st.Expanded, st)
	}
	// Each repeated point is answered by its first occurrence's job: folded
	// onto it while in flight, or a cache hit once it is done.
	if st.Coalesced+st.CacheHits != repeats {
		t.Fatalf("first pass: coalesced %d + cache hits %d, want %d repeated points", st.Coalesced, st.CacheHits, repeats)
	}
	if qs := srv.Queue().Stats(); qs.Admitted != st.Expanded-repeats {
		t.Fatalf("first pass ran %d jobs for %d distinct points", qs.Admitted, st.Expanded-repeats)
	}

	// Second submission: all shards must be served from the cache with zero
	// new simulations (the queue's admitted counter must not move).
	admittedBefore := srv.Queue().Stats().Admitted
	sub2, err := client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitBatch(t, client, sub2.ID, "done")
	if st2.CacheHits != st2.Expanded {
		t.Fatalf("second pass: %d/%d cache hits: %+v", st2.CacheHits, st2.Expanded, st2)
	}
	if after := srv.Queue().Stats().Admitted; after != admittedBefore {
		t.Fatalf("second pass admitted %d new jobs", after-admittedBefore)
	}
	// And its stream replays the identical payload bytes.
	n2, err := client.StreamBatchResults(context.Background(), sub2.ID, func(l BatchResultLine) error {
		if !l.CacheHit {
			t.Errorf("shard %d not marked cacheHit on the second pass", l.Index)
		}
		if !bytes.Equal(l.Result, lines[l.Index].Result) {
			t.Errorf("shard %d: second-pass bytes differ", l.Index)
		}
		return nil
	})
	if err != nil || n2 != len(points) {
		t.Fatalf("second stream: %d lines, err %v", n2, err)
	}
}

// TestBatchFeedsThroughBackpressure: a grid bigger than the queue capacity
// must still complete — the feeder retries ErrQueueFull at each job state
// change, feeding exactly as fast as the queue drains.
func TestBatchFeedsThroughBackpressure(t *testing.T) {
	srv := New(Config{Workers: 2, QueueCapacity: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	grid := testGrid() // 8 points through a 2-deep queue
	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, client, sub.ID, "done")
	if st.Completed != st.Expanded {
		t.Fatalf("batch did not complete through backpressure: %+v", st)
	}
}

// TestBatchDrainConservation mirrors the PR 7 partial-admission fix at
// batch granularity: a drain landing mid-batch must leave
// expanded = completed + failed + dropped + rejected, and the partial
// results must stay visible on the status and results endpoints.
func TestBatchDrainConservation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	grid := sweep.Grid{
		Base: slowScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6})},
	}
	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	// Let the feeder make progress before pulling the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := client.BatchStatus(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Admitted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never started feeding")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Drain(50 * time.Millisecond)

	st, err := client.BatchStatus(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == "running" {
		t.Fatalf("batch still running after drain: %+v", st)
	}
	if got := st.Completed + st.Failed + st.Dropped + st.Rejected; got != st.Expanded {
		t.Fatalf("conservation broken after drain: %d terminal of %d expanded: %+v", got, st.Expanded, st)
	}
	if st.Dropped+st.Rejected == 0 {
		t.Fatalf("drain mid-batch dropped nothing — the test raced; accounting: %+v", st)
	}
	// The stream must replay every shard's terminal line, partial results
	// included, even though the batch never finished cleanly.
	n, err := client.StreamBatchResults(context.Background(), sub.ID, func(l BatchResultLine) error { return nil })
	if err != nil {
		t.Fatalf("stream after drain: %v", err)
	}
	if int64(n) != st.Expanded {
		t.Fatalf("stream replayed %d lines, want %d", n, st.Expanded)
	}
}

// TestBatchCancel: DELETE stops feeding; unsubmitted shards are rejected,
// admitted ones drain, and the conservation law still closes the books.
func TestBatchCancel(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	grid := sweep.Grid{
		Base: slowScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6, 7, 8})},
	}
	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CancelBatch(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, client, sub.ID, "cancelled")
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err = client.BatchStatus(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed+st.Failed+st.Dropped+st.Rejected == st.Expanded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled batch never settled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Rejected == 0 {
		t.Fatalf("cancel rejected nothing: %+v", st)
	}
}

// TestBatchStreamOutlivesHTTPTimeout is the end-to-end regression for the
// httpx exemption: with a request timeout far shorter than the batch, the
// results stream must keep flowing until the last shard.
func TestBatchStreamOutlivesHTTPTimeout(t *testing.T) {
	srv := New(Config{
		Workers: 1, QueueCapacity: 8,
		RequestTimeout: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	// One worker, four ~200 ms jobs: the batch takes ~800 ms against a 50 ms
	// API deadline.
	grid := sweep.Grid{
		Base: slowScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4})},
	}
	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := client.StreamBatchResults(context.Background(), sub.ID, func(l BatchResultLine) error {
		if l.Status != ShardCompleted {
			t.Errorf("shard %d: %s (%s)", l.Index, l.Status, l.Error)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n != 4 {
		t.Fatalf("streamed %d lines, want 4", n)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("stream finished in %v — jobs cannot have run; timeout middleware interfered?", elapsed)
	}
}

// TestBatchSSE: Accept: text/event-stream switches the framing.
func TestBatchSSE(t *testing.T) {
	srv := New(Config{Workers: 2, QueueCapacity: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), sweep.Grid{
		Base: fastScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batches/"+sub.ID+"/results", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "data: "); got != 2 {
		t.Fatalf("%d SSE events, want 2:\n%s", got, buf.String())
	}
}

// TestBatchValidationAndLimits: malformed grids 400, oversized grids 413,
// unknown IDs 404.
func TestBatchValidationAndLimits(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4, MaxBatchPoints: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"nope": true}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", code)
	}
	if code := post(`{"base":{"N":6},"axes":[{"over":"flux"}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad axis: HTTP %d, want 400", code)
	}
	big, _ := sweep.EncodeGrid(sweep.Grid{
		Base: fastScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5})},
	})
	if code := post(string(big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized grid: HTTP %d, want 413", code)
	}
	for _, path := range []string{"/v1/batches/b-99", "/v1/batches/b-99/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitScenariosRetry: rejected items are resubmitted after the
// server's Retry-After hint (jittered, capped) instead of hot-looping.
func TestSubmitScenariosRetry(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		calls++
		resp := SubmitResponse{Runs: make([]SubmitRun, len(req.Scenarios))}
		if calls == 1 {
			// First round: accept the first item, bounce the rest.
			for i := range resp.Runs {
				if i == 0 {
					resp.Runs[i] = SubmitRun{ID: "job-0", Status: SubmitQueued}
				} else {
					resp.Runs[i] = SubmitRun{Status: "rejected", Error: "queue full"}
				}
			}
			SetRetryAfter(w.Header(), 2*time.Second)
			w.WriteHeader(http.StatusTooManyRequests)
		} else {
			for i := range resp.Runs {
				resp.Runs[i] = SubmitRun{ID: "job-x", Status: SubmitQueued}
			}
		}
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	policy := RetryPolicy{
		MaxAttempts: 4,
		Jitter:      0.2,
		sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	client := NewClient(ts.URL)
	scenarios := []wrtring.Scenario{fastScenario(1), fastScenario(2), fastScenario(3)}
	resp, err := client.SubmitScenariosRetry(context.Background(), scenarios, policy)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("%d submit rounds, want 2", calls)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(slept))
	}
	// Honour the 2 s hint, plus up to 20 % jitter.
	if slept[0] < 2*time.Second || slept[0] > 2400*time.Millisecond {
		t.Fatalf("backoff %v outside [2s, 2.4s]", slept[0])
	}
	if len(resp.Runs) != 3 {
		t.Fatalf("%d runs, want 3", len(resp.Runs))
	}
	for i, run := range resp.Runs {
		if run.Status != SubmitQueued {
			t.Fatalf("run %d: %q after retries", i, run.Status)
		}
	}
	if resp.Runs[0].ID != "job-0" {
		t.Fatalf("first-round admission lost its ID: %+v", resp.Runs[0])
	}
}

// TestSubmitScenariosRetryGivesUp: MaxAttempts bounds the rounds and the
// final rejected statuses survive to the caller.
func TestSubmitScenariosRetryGivesUp(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		calls++
		resp := SubmitResponse{Runs: make([]SubmitRun, len(req.Scenarios))}
		for i := range resp.Runs {
			resp.Runs[i] = SubmitRun{Status: "rejected", Error: "queue full"}
		}
		SetRetryAfter(w.Header(), time.Second)
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	policy := RetryPolicy{
		MaxAttempts: 3,
		sleep:       func(context.Context, time.Duration) error { return nil },
	}
	client := NewClient(ts.URL)
	resp, err := client.SubmitScenariosRetry(context.Background(), []wrtring.Scenario{fastScenario(1)}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("%d rounds, want 3", calls)
	}
	if resp.Runs[0].Status != "rejected" {
		t.Fatalf("final status %q, want rejected", resp.Runs[0].Status)
	}
}
