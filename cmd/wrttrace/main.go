// Command wrttrace runs a scenario with the protocol journal enabled and
// dumps the retained events — the observability front end for debugging
// protocol behaviour (SAT seizures, recoveries, joins, exiles).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/trace"
)

func main() {
	n := flag.Int("n", 8, "stations")
	dur := flag.Int64("dur", 20_000, "slots")
	seed := flag.Uint64("seed", 1, "seed")
	capacity := flag.Int("cap", 256, "retained events")
	only := flag.String("only", "", "comma-separated event kinds to retain (e.g. sat.seize,rec.heal)")
	kill := flag.Int64("kill", 0, "kill station N/2 at this slot (0 = no kill)")
	lose := flag.Int64("lose", 0, "destroy the control signal (SAT or token) at this slot (0 = never)")
	rap := flag.Bool("rap", false, "enable the Random Access Period")
	config := flag.String("config", "", "JSON scenario file (overrides flags except -only/-cap)")
	flag.Parse()

	var s wrtring.Scenario
	if *config != "" {
		data, err := os.ReadFile(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s, err = wrtring.ParseScenario(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		s = wrtring.Scenario{
			N: *n, L: 2, K: 2, Seed: *seed, Duration: *dur, EnableRAP: *rap,
			Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
				Class: wrtring.Premium, Period: 60, Dest: wrtring.Opposite()}},
		}
	}
	s.Trace = true
	s.TraceCapacity = *capacity
	if *kill > 0 {
		s.Churn = append(s.Churn, wrtring.ChurnOp{At: *kill, Kind: wrtring.Kill, Station: s.N / 2})
	}
	if *lose > 0 {
		s.Churn = append(s.Churn, wrtring.ChurnOp{At: *lose, Kind: wrtring.LoseSignal})
	}

	net, err := wrtring.Build(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *only != "" {
		var kinds []trace.Kind
		for _, k := range strings.Split(*only, ",") {
			kinds = append(kinds, trace.Kind(strings.TrimSpace(k)))
		}
		net.Journal().Only(kinds...)
	}
	res := net.Run()

	if err := net.Journal().Dump(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("-- run: slots=%d rounds=%d detections=%d splices=%d reforms=%d dead=%v\n",
		res.Slots, res.Rounds, res.Detections, res.Splices, res.Reformations, res.Dead)
}
