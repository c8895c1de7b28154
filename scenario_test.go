package wrtring

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/rtnet/wrtring/internal/sim"
	"github.com/rtnet/wrtring/internal/trace"
)

func TestScriptedChurn(t *testing.T) {
	net, err := Build(Scenario{
		N: 10, L: 2, K: 2, Seed: 40, Duration: 80_000,
		EnableRAP: true, AutoRejoin: true,
		// Wide range: the circle keeps enough connectivity for splices even
		// after two adjacent-ish members are gone.
		RangeChords: 3.5,
		Churn: []ChurnOp{
			{At: 5_000, Kind: Kill, Station: 7},
			{At: 15_000, Kind: Leave, Station: 3},
			{At: 25_000, Kind: Join, Station: 0},
			{At: 40_000, Kind: LoseSignal},
		},
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run()
	if res.Dead {
		t.Fatal("ring died under scripted churn")
	}
	// Kill + leave drop two members; one join adds one; the signal loss
	// exiles one healthy member which then rejoins: 10 - 2 + 1 = 9.
	if res.N != 9 {
		t.Fatalf("final N = %d, want 9", res.N)
	}
	if len(net.Joiners()) != 1 || !net.Joiners()[0].Joined() {
		t.Fatalf("scripted join failed")
	}
	j := net.Journal()
	if j.Count(trace.RecHeal) < 3 {
		t.Fatalf("journal heals = %d, want >= 3", j.Count(trace.RecHeal))
	}
	// Two joins: the scripted newcomer plus the exiled station's rejoin.
	if j.Count(trace.JoinDone) != 2 || j.Count(trace.LeaveDone) != 1 {
		t.Fatalf("journal joins=%d leaves=%d", j.Count(trace.JoinDone), j.Count(trace.LeaveDone))
	}
	if j.Count(trace.Exile) != 1 {
		t.Fatalf("journal exiles=%d", j.Count(trace.Exile))
	}

	// The same script on TPT: the kill and the leave (TPT has no graceful
	// leave, so it is a kill) each force a tree rebuild; the signal loss is
	// healed by a successful claim.
	tres, err := Run(Scenario{
		Protocol: TPT, N: 10, L: 2, K: 2, Seed: 40, Duration: 80_000,
		RangeChords: 3.5,
		Churn: []ChurnOp{
			{At: 5_000, Kind: Kill, Station: 7},
			{At: 15_000, Kind: Leave, Station: 3},
			{At: 40_000, Kind: LoseSignal},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Dead {
		t.Fatal("tree died under scripted churn")
	}
	if tres.N != 8 || tres.Reformations != 2 || tres.Splices != 1 {
		t.Fatalf("TPT churn: N=%d rebuilds=%d claim successes=%d, want 8, 2, 1",
			tres.N, tres.Reformations, tres.Splices)
	}
}

// TestChurnOpMatchesKernelAt pins the scripted op to the hand-written
// kernel event it replaces: the op and a PrioAdmin closure scheduled at the
// same slot give byte-identical results on both protocols.
func TestChurnOpMatchesKernelAt(t *testing.T) {
	const at = 5_000
	for _, proto := range []Protocol{WRTRing, TPT} {
		for _, op := range []ChurnOp{
			{At: at, Kind: Kill, Station: 5},
			{At: at, Kind: LoseSignal},
		} {
			t.Run(proto.String()+"/"+op.Kind.String(), func(t *testing.T) {
				base := Scenario{
					Protocol: proto, N: 12, L: 2, K: 2, Seed: 43, Duration: 20_000,
					Sources: []Source{{Station: AllStations, Kind: CBR, Class: Premium,
						Period: 60, Dest: Opposite()}},
				}
				scripted := base
				scripted.Churn = []ChurnOp{op}
				viaOp, err := Run(scripted)
				if err != nil {
					t.Fatal(err)
				}

				net, err := Build(base)
				if err != nil {
					t.Fatal(err)
				}
				net.Start()
				net.Kernel.At(at, sim.PrioAdmin, func() {
					switch {
					case op.Kind == Kill && net.Ring != nil:
						net.Ring.KillStation(StationID(op.Station))
					case op.Kind == Kill:
						net.Tree.KillStation(StationID(op.Station))
					case net.Ring != nil:
						net.Ring.LoseSATOnce()
					default:
						net.Tree.LoseTokenOnce()
					}
				})
				viaAt := net.Run()

				a, err := json.Marshal(viaOp)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(viaAt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("churn op and Kernel.At closure differ:\nop: %s\nat: %s", a, b)
				}
				if viaOp.Detections == 0 {
					t.Fatal("fault never detected")
				}
			})
		}
	}
}

func TestChurnValidation(t *testing.T) {
	if _, err := Build(Scenario{N: 6, Churn: []ChurnOp{{At: 1, Kind: Kill, Station: 99}}}); err == nil {
		t.Fatal("out-of-range churn target accepted")
	}
	if _, err := Build(Scenario{N: 6, Churn: []ChurnOp{{At: 1, Kind: Join, Station: 0}}}); err == nil {
		t.Fatal("join without RAP accepted")
	}
	if _, err := Build(Scenario{N: 6, Protocol: TPT, EnableRAP: true, TEar: 12, TUpdate: 4,
		Churn: []ChurnOp{{At: 1, Kind: Join, Station: 0}}}); err == nil {
		t.Fatal("scripted TPT join accepted")
	}
}

func TestMobilityRingSurvivesSlowDrift(t *testing.T) {
	// Very slow drift in a dense layout: links occasionally stretch, the
	// recovery machinery absorbs it, and the ring keeps rotating.
	net, err := Build(Scenario{
		N: 10, L: 2, K: 2, Seed: 41, Duration: 80_000,
		RangeChords:   3.5, // dense: drift rarely breaks connectivity outright
		Mobility:      &Mobility{Speed: 0.002, PauseMin: 500, PauseMax: 2000, StepEvery: 200},
		SatTimeMargin: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run()
	if res.Dead {
		t.Fatal("ring died under slow mobility")
	}
	if res.Rounds < 1000 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// Positions must actually have moved.
	moved := false
	for i, p := range net.Positions {
		if net.Medium.PositionOf(net.Ring.Station(StationID(i)).Node) != p {
			moved = true
		}
	}
	if !moved {
		t.Fatal("mobility stepper never moved anyone")
	}
}

func TestMobilityFasterDriftTriggersRecovery(t *testing.T) {
	// Faster drift with tight range: neighbour links break, SAT losses are
	// detected and repaired (splice or re-formation) — the §2.5 machinery
	// under a genuinely changing environment.
	net, err := Build(Scenario{
		N: 12, L: 1, K: 1, Seed: 42, Duration: 120_000,
		RangeChords:   1.6,
		Mobility:      &Mobility{Speed: 0.02, PauseMin: 100, PauseMax: 400, StepEvery: 100},
		SatTimeMargin: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run()
	if res.Detections == 0 {
		t.Skip("drift never broke a link with this seed")
	}
	if res.Splices+res.Reformations == 0 && !res.Dead {
		t.Fatalf("detections=%d but no repair and not dead", res.Detections)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	net, err := Build(Scenario{N: 6, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	if net.Journal() != nil {
		t.Fatal("journal allocated without Trace")
	}
	net.Run() // must not panic with a nil journal
}
