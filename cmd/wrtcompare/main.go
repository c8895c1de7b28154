// Command wrtcompare regenerates the paper's §3 evaluation as measured
// tables: the same station population and reserved bandwidth run under
// WRT-Ring and TPT, and the program prints hop counts, rotation times,
// capacity, and loss-reaction latencies side by side, each next to its
// closed-form bound.
//
// Every simulation in a table is independent, so each section's grid is
// dispatched across -jobs workers through the shared batch runner; rows
// print in deterministic order regardless of the worker count.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
)

func main() {
	ns := flag.String("n", "5,10,20,50", "comma-separated station counts")
	l := flag.Int("l", 2, "real-time quota l")
	k := flag.Int("k", 2, "best-effort quota k")
	dur := flag.Int64("dur", 60_000, "slots per run")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"parallel simulation workers; 1 reproduces the serial run byte-for-byte")
	flag.Parse()

	var counts []int
	for _, f := range strings.Split(*ns, ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil && v >= 4 {
			counts = append(counts, v)
		}
	}
	opts := runner.Options{Jobs: *jobs}

	fmt.Println("== E2/E3: control-signal round trip (idle network) ==")
	fmt.Printf("%4s | %14s %14s | %14s %14s | %7s\n",
		"N", "SAT hops/round", "token hops/rnd", "SAT rot (meas)", "tok rot (meas)", "ratio")
	var idle []wrtring.Scenario
	for _, n := range counts {
		idle = append(idle,
			wrtring.Scenario{N: n, L: *l, K: *k, Seed: *seed, Duration: *dur},
			wrtring.Scenario{Protocol: wrtring.TPT, N: n, L: *l, K: *k, Seed: *seed, Duration: *dur})
	}
	idleRes := mustAll(runner.RunScenarios(idle, opts))
	for i, n := range counts {
		ring, tree := idleRes[2*i], idleRes[2*i+1]
		fmt.Printf("%4d | %14.1f %14.1f | %14.1f %14.1f | %7.2f\n",
			n, ring.HopsPerRound, tree.HopsPerRound, ring.MeanRotation, tree.MeanRotation,
			tree.MeanRotation/ring.MeanRotation)
	}
	fmt.Println("paper: token travels 2*(N-1) links per round, SAT only N (§3.2.1);")
	fmt.Println("ratio -> 2 as N grows.")

	fmt.Println("\n== E4: reaction to control-signal loss and station death ==")
	fmt.Printf("%4s %-9s %-14s | %7s %7s %7s | %-8s\n",
		"N", "protocol", "fault", "bound", "detect", "heal", "repair")
	var faulted []wrtring.Scenario
	for _, n := range counts {
		for _, proto := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
			for _, op := range []wrtring.ChurnOp{
				{At: *dur / 4, Kind: wrtring.LoseSignal},
				{At: *dur / 4, Kind: wrtring.Kill, Station: n / 2},
			} {
				faulted = append(faulted, wrtring.Scenario{
					Protocol: proto, N: n, L: *l, K: *k, Seed: *seed, Duration: *dur,
					Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
						Class: wrtring.Premium, Period: 80, Dest: wrtring.Opposite()}},
					Churn: []wrtring.ChurnOp{op},
				})
			}
		}
	}
	for i, res := range mustAll(runner.RunScenarios(faulted, opts)) {
		s := faulted[i]
		fault := "signal-loss"
		if s.Churn[0].Kind == wrtring.Kill {
			fault = "station-death"
		}
		repair := "none"
		switch {
		case res.Reformations > 0:
			repair = "rebuild"
		case res.Splices > 0:
			repair = "splice"
		}
		fmt.Printf("%4d %-9s %-14s | %7d %7.0f %7.0f | %-8s\n",
			s.N, s.Protocol.String(), fault, res.RotationBound,
			res.DetectLatency, res.HealLatency, repair)
	}
	fmt.Println("paper: SAT_TIME < D = 2*TTRT, and WRT-Ring splices around a dead station")
	fmt.Println("while TPT must rebuild the whole tree (§3.3).")

	fmt.Println("\n== E12: saturated capacity (concurrent access vs single talker) ==")
	fmt.Printf("%4s | %12s %12s %7s | %12s %12s %7s\n",
		"N", "ring opp", "tpt opp", "ratio", "ring nbr", "tpt nbr", "ratio")
	var sat []wrtring.Scenario
	for _, n := range counts {
		sat = append(sat,
			saturated(n, *l, *k, *seed, *dur, wrtring.WRTRing, wrtring.Opposite()),
			saturated(n, *l, *k, *seed, *dur, wrtring.TPT, wrtring.Opposite()),
			saturated(n, *l, *k, *seed, *dur, wrtring.WRTRing, wrtring.Offset(1)),
			saturated(n, *l, *k, *seed, *dur, wrtring.TPT, wrtring.Offset(1)))
	}
	satRes := mustAll(runner.RunScenarios(sat, opts))
	for i, n := range counts {
		rOpp, tOpp := satRes[4*i].Throughput, satRes[4*i+1].Throughput
		rNbr, tNbr := satRes[4*i+2].Throughput, satRes[4*i+3].Throughput
		fmt.Printf("%4d | %12.4f %12.4f %7.2f | %12.4f %12.4f %7.2f\n",
			n, rOpp, tOpp, rOpp/tOpp, rNbr, tNbr, rNbr/tNbr)
	}
	fmt.Println("packets/slot under saturation; paper (§3.2, via [13]): concurrent access")
	fmt.Println("yields higher capacity; spatial reuse grows the gap for local traffic.")
}

func saturated(n, l, k int, seed uint64, dur int64, proto wrtring.Protocol, dest wrtring.DestSpec) wrtring.Scenario {
	return wrtring.Scenario{
		Protocol: proto, N: n, L: l, K: k, Seed: seed, Duration: dur,
		Sources: []wrtring.Source{
			{Station: wrtring.AllStations, Class: wrtring.Premium, Dest: dest, Preload: int(dur)},
			{Station: wrtring.AllStations, Class: wrtring.BestEffort, Dest: dest, Preload: int(dur)},
		},
	}
}

func mustAll(rs []runner.Result) []*wrtring.Result {
	out := make([]*wrtring.Result, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Res
	}
	return out
}
