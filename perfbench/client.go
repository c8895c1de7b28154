package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// pollInterval is the client's fixed status-poll interval, well below the
// direct miss median (several ms), so polling adds little to a miss.
const pollInterval = time.Millisecond

// requestTimeout bounds one client operation; a slower one counts as failed.
const requestTimeout = 10 * time.Second

// wireClient speaks the /v1 wire contract directly with net/http:
// POST /v1/runs, GET /v1/runs/{id}, POST /v1/batches and
// GET /v1/batches/{id}/results. It does not use serve.Client, so the
// benchmark keeps measuring the contract however that client changes.
type wireClient struct {
	base string
	http *http.Client
}

func newWireClient(base string) *wireClient {
	return &wireClient{base: base, http: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute},
	}}
}

func (c *wireClient) close() { c.http.CloseIdleConnections() }

type submitRun struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

type statusBody struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// runOutcome is what one closed-loop run request produced.
type runOutcome struct {
	lat   time.Duration
	polls int
	size  int
	sum   digest
	err   error
}

// submitBody renders the POST /v1/runs body for encoded scenarios.
func submitBody(scenarios ...[]byte) []byte {
	var b bytes.Buffer
	b.WriteString(`{"scenarios":[`)
	b.Write(bytes.Join(scenarios, []byte(",")))
	b.WriteString(`]}`)
	return b.Bytes()
}

// run submits one scenario and polls until its result arrives. When tr is
// non-nil it records the request's spans: a "client.request" root whose
// Status carries class, with client.submit / client.wait / client.status
// children.
func (c *wireClient) run(ctx context.Context, body []byte, tr *tracer, class string) runOutcome {
	var out runOutcome
	var kids []span
	t0 := time.Now()
	rootStart := tr.now()
	mark := func(name string, start int64) {
		if tr != nil {
			kids = append(kids, span{Name: name, Parent: -1, Start: start, End: tr.now()})
		}
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()

	s := tr.now()
	code, resp, err := c.do(ctx, http.MethodPost, "/v1/runs", body)
	mark("client.submit", s)
	if err != nil {
		out.err = err
		return out
	}
	var sub struct{ Runs []submitRun }
	if err := json.Unmarshal(resp, &sub); err != nil || len(sub.Runs) != 1 {
		out.err = fmt.Errorf("submit: HTTP %d, undecodable body %q", code, truncate(resp))
		return out
	}
	run := sub.Runs[0]
	if code != http.StatusOK {
		out.err = fmt.Errorf("submit: HTTP %d (%s %s)", code, run.Status, run.Error)
		return out
	}
	switch run.Status {
	case "cached":
	case "queued", "coalesced":
		s := tr.now()
		if !sleepCtx(ctx, pollInterval) {
			out.err = ctx.Err()
			return out
		}
		mark("client.wait", s)
	default:
		out.err = fmt.Errorf("submit: run status %q (%s)", run.Status, run.Error)
		return out
	}
	for {
		s := tr.now()
		code, resp, err := c.do(ctx, http.MethodGet, "/v1/runs/"+run.ID, nil)
		mark("client.status", s)
		out.polls++
		if err != nil {
			out.err = err
			return out
		}
		if code != http.StatusOK {
			out.err = fmt.Errorf("status: HTTP %d %q", code, truncate(resp))
			return out
		}
		var st statusBody
		if err := json.Unmarshal(resp, &st); err != nil {
			out.err = fmt.Errorf("status: %w", err)
			return out
		}
		switch st.Status {
		case "done":
			out.lat = time.Since(t0)
			if len(st.Result) == 0 {
				out.err = fmt.Errorf("status: done without a result (%s)", st.Error)
				return out
			}
			tr.addTree(span{Trace: run.ID, Name: "client.request", Status: class, Start: rootStart, End: tr.now()}, kids)
			out.size = len(st.Result)
			out.sum = sha256.Sum256(st.Result)
			return out
		case "queued", "running":
		default:
			out.err = fmt.Errorf("status: run %s (%s)", st.Status, st.Error)
			return out
		}
		s = tr.now()
		if !sleepCtx(ctx, pollInterval) {
			out.err = ctx.Err()
			return out
		}
		mark("client.wait", s)
	}
}

// do performs one request and reads the whole body.
func (c *wireClient) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// batchLine is one NDJSON line of a batch result stream.
type batchLine struct {
	Index    int64           `json:"index"`
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	CacheHit bool            `json:"cacheHit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// streamBatch reads a batch's NDJSON result stream to the last line,
// calling fn with each decoded line, its size and its arrival time.
func (c *wireClient) streamBatch(ctx context.Context, id string, fn func(l batchLine, size int, at time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/batches/"+id+"/results", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream: HTTP %d %q", resp.StatusCode, truncate(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		at := time.Now()
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		fn(l, len(sc.Bytes())+1, at)
	}
	return sc.Err()
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
