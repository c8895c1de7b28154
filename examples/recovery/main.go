// Command recovery reproduces the §3.3 reaction-time comparison live: the
// same station population runs WRT-Ring and TPT, the control signal is
// destroyed (and stations killed) at the same virtual instants, and the
// programs print how long each protocol needs to notice and to heal —
// WRT-Ring splicing the ring locally, TPT rebuilding its whole tree.
package main

import (
	"fmt"
	"log"

	wrtring "github.com/rtnet/wrtring"
)

func main() {
	fmt.Println("recovery — control-signal loss and station death, WRT-Ring vs TPT")
	fmt.Printf("%-10s %-22s %10s %10s %10s %8s\n",
		"protocol", "fault", "bound", "detect", "heal", "events")

	for _, proto := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
		// Fault 1: pure signal loss (the control frame vanishes in the air).
		run(proto, "signal-loss", wrtring.ChurnOp{At: 5_000, Kind: wrtring.LoseSignal})
		// Fault 2: a station dies silently. WRT-Ring cuts it out with
		// SAT_REC; TPT must rebuild the entire tree.
		run(proto, "station-death", wrtring.ChurnOp{At: 5_000, Kind: wrtring.Kill, Station: 7})
	}
}

func run(proto wrtring.Protocol, fault string, op wrtring.ChurnOp) {
	res, err := wrtring.Run(wrtring.Scenario{
		Protocol: proto, N: 12, L: 2, K: 2, Seed: 5,
		Duration: 40_000,
		Sources: []wrtring.Source{{
			Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 60, Dest: wrtring.Opposite(),
		}},
		Churn: []wrtring.ChurnOp{op},
	})
	if err != nil {
		log.Fatal(err)
	}

	kind := "?"
	var events int64
	switch {
	case res.Reformations > 0:
		kind, events = "rebuild", res.Reformations
	case res.Splices > 0:
		kind, events = "splice", res.Splices
	}
	fmt.Printf("%-10s %-22s %10d %10.0f %10.0f %5d %s\n",
		proto, fault, res.RotationBound, res.DetectLatency, res.HealLatency, events, kind)
	if res.Dead {
		fmt.Printf("%-10s %-22s NETWORK DEAD\n", proto, fault)
	}
}
