package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host identifies the machine and build a result came from. Results are
// comparable only when every field but Commit matches: a slower machine is
// not a regression.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

func (h host) String() string {
	return fmt.Sprintf("%s/%s cpu=%q nproc=%d gomaxprocs=%d %s commit=%s",
		h.GOOS, h.GOARCH, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

// sameMachine reports whether two stamps name the same host and toolchain.
func (h host) sameMachine(o host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func stampHost() host {
	h := host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "-dirty"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the result file a run writes beside its stdout report.
type record struct {
	Host     host           `json:"host"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Report   report         `json:"report"`
	Samples  map[string]int `json:"samples"`
	Ledger   []ledgerRow    `json:"ledger,omitempty"`
	Problems []string       `json:"problems,omitempty"`
}

// compareMain compares two directories of result files: for every workload
// and metric it prints both medians and the change. It refuses to compare
// results stamped by different hosts.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base-results-dir> <new-results-dir>")
		return 2
	}
	base, err := loadRecords(args[0])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("no result files in %s", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	head, err := loadRecords(args[1])
	if err == nil && len(head) == 0 {
		err = fmt.Errorf("no result files in %s", args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if err := checkHosts(append(append([]record(nil), base...), head...)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing:", err)
		return 1
	}
	bm, hm := medians(base), medians(head)
	keys := make([]string, 0, len(bm))
	for k := range bm {
		if _, ok := hm[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-44s %14s %14s %9s\n", "workload/metric", "base", "new", "change")
	for _, k := range keys {
		fmt.Fprintf(w, "%-44s %14.4f %14.4f %+8.1f%%\n", k, bm[k], hm[k], 100*ratio(hm[k]-bm[k], bm[k]))
	}
	return 0
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// checkHosts returns an error naming the first record whose host differs
// from the first one's.
func checkHosts(rs []record) error {
	for _, r := range rs[1:] {
		if !r.Host.sameMachine(rs[0].Host) {
			return fmt.Errorf("results come from different hosts: %s vs %s", rs[0].Host, r.Host)
		}
	}
	return nil
}

// medians groups correct records by workload/metric and takes each median.
func medians(rs []record) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rs {
		if !r.Report.Correct {
			continue
		}
		for k, m := range r.Report.Metrics {
			key := r.Workload + "/" + k
			vals[key] = append(vals[key], m.Value)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
