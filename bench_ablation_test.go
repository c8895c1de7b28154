// Ablation benchmarks for the design choices called out in DESIGN.md §6:
// slot-removal policy (spatial reuse), RAP length (bound inflation),
// splice-vs-reform recovery, radio loss rates, and mobility. These are not
// paper claims but quantify how much each mechanism contributes.
package wrtring_test

import (
	"fmt"
	"testing"

	. "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/core"
)

// BenchmarkA1RemovalPolicy — destination removal frees slots mid-ring and
// enables spatial reuse; source removal forces every packet to occupy its
// slot for a full circle. The throughput gap is the value of reuse.
func BenchmarkA1RemovalPolicy(b *testing.B) {
	for _, pol := range []core.RemovalPolicy{core.DestinationRemoval, core.SourceRemoval} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := satScenario(WRTRing, 16, Offset(1), 30_000, 50)
				s.Removal = pol
				res := mustRun(b, s)
				if res.Dead {
					b.Fatal("ring died")
				}
				b.ReportMetric(res.Throughput, "pkt/slot")
				b.ReportMetric(float64(res.MaxRotation), "max_rotation")
			}
		})
	}
}

// BenchmarkA2RAPLengthSweep — T_rap enters the Theorem-1 bound additively;
// longer earing windows inflate both the bound and the measured rotation.
func BenchmarkA2RAPLengthSweep(b *testing.B) {
	for _, tear := range []int64{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("tear=%d", tear), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := satScenario(WRTRing, 12, Opposite(), 30_000, 51)
				s.EnableRAP = true
				s.TEar = tear
				s.TUpdate = 4
				res := mustRun(b, s)
				if res.MaxRotation >= res.RotationBound {
					b.Fatalf("bound violated at tear=%d", tear)
				}
				b.ReportMetric(res.MeanRotation, "mean_rotation")
				b.ReportMetric(float64(res.RotationBound), "thm1_bound")
				b.ReportMetric(res.Throughput, "pkt/slot")
			}
		})
	}
}

// BenchmarkA3SpliceAblation — with the splice disabled every SAT loss costs
// a full re-formation, degrading recovery to TPT-like behaviour.
func BenchmarkA3SpliceAblation(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "splice"
		if disable {
			name = "always-reform"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(Scenario{
					N: 16, L: 2, K: 2, Seed: 52, Duration: 40_000,
					DisableSplice: disable,
					Churn:         []ChurnOp{{At: 10_000, Kind: Kill, Station: 8}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Dead {
					b.Fatal("ring died")
				}
				b.ReportMetric(res.HealLatency, "heal_slots")
				b.ReportMetric(float64(res.Reformations), "reforms")
			}
		})
	}
}

// BenchmarkA4DataLossSweep — resilience to radio loss on the data path:
// throughput degrades roughly linearly with frame-loss probability while
// the control machinery (protected control frames) keeps the ring alive.
func BenchmarkA4DataLossSweep(b *testing.B) {
	for _, loss := range []float64{0, 0.001, 0.01, 0.05} {
		b.Run(fmt.Sprintf("loss=%g", loss), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := Build(Scenario{
					N: 10, L: 2, K: 2, Seed: 53, Duration: 30_000,
					SatTimeMargin: 8,
					Sources: []Source{{Station: AllStations, Kind: CBR, Class: Premium,
						Period: 30, Dest: Opposite()}},
				})
				if err != nil {
					b.Fatal(err)
				}
				net.Medium.LossProb = loss
				net.Medium.ControlLossProb = 0
				res := net.Run()
				if res.Dead {
					b.Fatal("ring died")
				}
				offered := float64(res.Slots) / 30 * 10
				b.ReportMetric(float64(res.Delivered[Premium])/offered, "delivery_ratio")
			}
		})
	}
}

// BenchmarkA5ControlLossRejoin — sustained control loss with AutoRejoin:
// exiles and rejoins balance and the ring survives indefinitely.
func BenchmarkA5ControlLossRejoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := Build(Scenario{
			N: 10, L: 2, K: 2, Seed: 54, Duration: 120_000,
			EnableRAP: true, AutoRejoin: true, SatTimeMargin: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Medium.ControlLossProb = 0.0005
		res := net.Run()
		if res.Dead {
			b.Fatal("ring died under sustained control loss")
		}
		b.ReportMetric(float64(net.Ring.Metrics.Exiles), "exiles")
		b.ReportMetric(float64(net.Ring.Metrics.Rejoins), "rejoins")
		b.ReportMetric(float64(res.N), "final_members")
	}
}

// BenchmarkA6Mobility — the low-mobility indoor assumption: slow waypoint
// drift is absorbed by the recovery machinery without losing the ring.
func BenchmarkA6Mobility(b *testing.B) {
	for _, speed := range []float64{0.001, 0.005, 0.02} {
		b.Run(fmt.Sprintf("speed=%g", speed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := Build(Scenario{
					N: 12, L: 2, K: 2, Seed: 55, Duration: 60_000,
					RangeChords:   3.0,
					SatTimeMargin: 8,
					Mobility:      &Mobility{Speed: speed, PauseMin: 200, PauseMax: 1000, StepEvery: 100},
				})
				if err != nil {
					b.Fatal(err)
				}
				res := net.Run()
				b.ReportMetric(float64(res.Detections), "detections")
				b.ReportMetric(float64(res.Splices+res.Reformations), "repairs")
				b.ReportMetric(boolMetric(!res.Dead), "alive")
			}
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
