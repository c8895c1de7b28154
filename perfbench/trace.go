package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public entry points it drives. All spans of one request share Trace, the
// content-addressed run ID, which is the same at the coordinator and the
// worker. Parent is the index of the enclosing span, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// Status and ElapsedMs echo a handler's response (run status and the
	// worker-reported job time) for the hop metrics.
	Status    string `json:"status,omitempty"`
	ElapsedMs int64  `json:"elapsedMs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; they are written out once
// the run ends. A nil *tracer is the untraced mode: every method is a no-op,
// so the untraced path pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// since converts a wall-clock instant to the tracer's clock.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// addTree records a root and its children (whose Parent fields index into
// kids, -1 meaning the root) under one trace ID.
func (t *tracer) addTree(root span, kids []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root.ID = len(t.spans)
	root.Parent = -1
	t.spans = append(t.spans, root)
	base := len(t.spans)
	for _, k := range kids {
		if k.Trace == "" {
			k.Trace = root.Trace
		}
		if k.Parent < 0 {
			k.Parent = root.ID
		} else {
			k.Parent += base
		}
		k.ID = len(t.spans)
		t.spans = append(t.spans, k)
	}
}

// snapshot returns the spans with the parents of handler spans resolved:
// a handler span's parent is the innermost client or coordinator span of
// the same trace that contains it in time, else the trace's root.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byTrace := map[string][]int{}
	for i, s := range out {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for i := range out {
		if out[i].Parent != -2 {
			continue
		}
		out[i].Parent = -1
		best := int64(-1)
		for _, j := range byTrace[out[i].Trace] {
			o := out[j]
			if j == i || o.Start > out[i].Start || o.End < out[i].End || (o.Start == out[i].Start && o.End == out[i].End && j > i) {
				continue
			}
			if best < 0 || o.dur() < best {
				best = o.dur()
				out[i].Parent = j
			}
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tap wraps a server's http.Handler. It counts API calls always and, when
// traced, records one span per request named "<prefix>.<route>" whose
// parent is resolved later (Parent -2) from time containment.
type tap struct {
	prefix string
	next   http.Handler
	tr     atomic.Pointer[tracer]
	calls  atomic.Int64
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		t.next.ServeHTTP(w, r)
		return
	}
	t.calls.Add(1)
	tr := t.tr.Load()
	if tr == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	start := tr.now()
	cw := &captureWriter{ResponseWriter: w}
	t.next.ServeHTTP(cw, r)
	end := tr.now()
	route, trace := routeOf(r)
	s := span{Trace: trace, Name: t.prefix + "." + route, Parent: -2, Start: start, End: end}
	head := cw.head.Bytes()
	if route == "submit" || route == "batch_submit" {
		s.Trace = jsonField(head, "id")
		s.Status = jsonField(head, "status")
	}
	if route == "status" {
		s.Status = jsonField(head, "status")
		s.ElapsedMs, _ = strconv.ParseInt(jsonField(head, "elapsedMs"), 10, 64)
	}
	tr.add(s)
}

// routeOf names the API route and, where the path carries it, the trace ID.
func routeOf(r *http.Request) (route, trace string) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/runs":
		return "submit", ""
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/runs/"):
		return "status", strings.TrimPrefix(p, "/v1/runs/")
	case r.Method == http.MethodPost && p == "/v1/batches":
		return "batch_submit", ""
	case strings.HasPrefix(p, "/v1/batches/") && strings.HasSuffix(p, "/results"):
		return "batch_stream", strings.TrimSuffix(strings.TrimPrefix(p, "/v1/batches/"), "/results")
	}
	return "other", p
}

// captureWriter keeps the first bytes of a response — enough for the run ID
// and status fields, which lead every body — and passes Flush through so
// streamed batch results still stream.
type captureWriter struct {
	http.ResponseWriter
	head bytes.Buffer
}

const captureBytes = 256

func (c *captureWriter) Write(p []byte) (int, error) {
	if room := captureBytes - c.head.Len(); room > 0 {
		c.head.Write(p[:min(room, len(p))])
	}
	return c.ResponseWriter.Write(p)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// jsonField extracts the first string or integer value of "key" from a
// JSON prefix, without decoding the (possibly truncated) whole.
func jsonField(b []byte, key string) string {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(b, k)
	if i < 0 {
		return ""
	}
	rest := b[i+len(k):]
	if len(rest) > 0 && rest[0] == '"' {
		end := bytes.IndexByte(rest[1:], '"')
		if end < 0 {
			return ""
		}
		return string(rest[1 : 1+end])
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return ""
	}
	return string(rest[:end])
}

// selfTimes attributes every instant of a root span's interval to the
// deepest span of its tree covering that instant (ties to the later start).
// A layer's self time is therefore its span's duration minus what its
// children cover; instants no child covers are the root's own — time the
// benchmark cannot place in any layer.
func selfTimes(root span, tree []span, depth map[int]int) map[string]int64 {
	points := []int64{root.Start, root.End}
	for _, s := range tree {
		points = append(points, clamp(s.Start, root.Start, root.End), clamp(s.End, root.Start, root.End))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if a == b {
			continue
		}
		owner := root
		od := 0
		for _, s := range tree {
			if s.Start <= a && s.End >= b {
				d := depth[s.ID]
				if d > od || (d == od && s.Start > owner.Start) {
					owner, od = s, d
				}
			}
		}
		out[owner.Name] += b - a
	}
	return out
}

func clamp(v, lo, hi int64) int64 {
	return max(lo, min(hi, v))
}

// depths computes each span's depth below its root.
func depths(spans []span) map[int]int {
	d := make(map[int]int, len(spans))
	var walk func(i int) int
	walk = func(i int) int {
		if v, ok := d[i]; ok {
			return v
		}
		p := spans[i].Parent
		v := 0
		if p >= 0 && p != i {
			v = walk(p) + 1
		}
		d[i] = v
		return v
	}
	for i := range spans {
		walk(i)
	}
	return d
}

// ledgerRow is one line of the layer ledger: a latency metric's median
// beside the median self time of each layer on its blocking path.
type ledgerRow struct {
	Metric   string             `json:"metric"`
	MedianMs float64            `json:"medianMs"`
	Samples  int                `json:"samples"`
	LayersMs map[string]float64 `json:"layersMs"`
	// ReplayedMs are layer costs measured by replaying the same calls
	// outside the request (simulation, store writes) — work that happens
	// while the client waits and that no request span can see.
	ReplayedMs map[string]float64 `json:"replayedMs,omitempty"`
	GapMs      float64            `json:"gapMs"`
	Finding    string             `json:"finding"`
}

// buildLedger groups the roots named rootName by class (light/heavy, carried
// in the root's Status) and reports, per class, the end-to-end median beside
// the median self time of every layer under those roots. waitLayer names the
// span a client spends waiting for work it cannot see; in its place the
// ledger counts the replayed costs of that work.
func buildLedger(spans []span, rootName string, replayed map[string]map[string]float64, waitLayer string) []ledgerRow {
	d := depths(spans)
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		r := s.Parent
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		kids[r] = append(kids[r], s)
	}
	type acc struct {
		e2e  []float64
		self []map[string]int64 // one per request
	}
	byClass := map[string]*acc{}
	for _, s := range spans {
		if s.Name != rootName || s.Parent >= 0 {
			continue
		}
		a := byClass[s.Status]
		if a == nil {
			a = &acc{}
			byClass[s.Status] = a
		}
		a.e2e = append(a.e2e, float64(s.dur())/nsPerMs)
		a.self = append(a.self, selfTimes(s, kids[s.ID], d))
	}
	var rows []ledgerRow
	for _, c := range []string{"light", "heavy"} {
		a := byClass[c]
		if a == nil {
			continue
		}
		row := ledgerRow{Metric: c + "_p50_ms", MedianMs: median(a.e2e), Samples: len(a.e2e),
			LayersMs: map[string]float64{}, ReplayedMs: replayed[c]}
		// A layer absent from a request spent 0 ms in it.
		names := map[string]bool{}
		for _, st := range a.self {
			for name := range st {
				names[name] = true
			}
		}
		explained := 0.0
		for name := range names {
			v := make([]float64, len(a.self))
			for i, st := range a.self {
				v[i] = float64(st[name]) / nsPerMs
			}
			m := median(v)
			row.LayersMs[name] = m
			if name != rootName && name != waitLayer {
				explained += m
			}
		}
		for _, v := range replayed[c] {
			explained += v
		}
		row.GapMs = row.MedianMs - explained
		if row.GapMs >= 0 {
			row.Finding = fmt.Sprintf("%.3f ms of the %.3f ms median (%.0f%%) is not explained by the layer self times and replayed costs",
				row.GapMs, row.MedianMs, 100*ratio(row.GapMs, row.MedianMs))
		} else {
			row.Finding = fmt.Sprintf("layer self times and replayed costs sum to %.3f ms more than the %.3f ms median: work that overlaps a span waiting for a CPU counts twice, and medians of parts do not add exactly",
				-row.GapMs, row.MedianMs)
		}
		rows = append(rows, row)
	}
	return rows
}
