package traffic

import (
	"testing"
	"testing/quick"

	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/sim"
)

type sink struct {
	pkts []core.Packet
}

func (s *sink) Enqueue(p core.Packet) { s.pkts = append(s.pkts, p) }

func TestCBRCadence(t *testing.T) {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	s := &sink{}
	g := AttachInto(new(Generator), k, rng, s, Spec{Kind: CBR, Class: core.Premium, Period: 10,
		Dest: FixedDest(3), Start: 5})
	k.Run(100)
	// Emissions at 5, 15, ..., 95: 10 packets.
	if len(s.pkts) != 10 || g.Emitted != 10 {
		t.Fatalf("emitted %d", len(s.pkts))
	}
	for _, p := range s.pkts {
		if p.Dst != 3 || p.Class != core.Premium {
			t.Fatalf("packet %+v", p)
		}
	}
}

func TestStopBoundary(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{}
	AttachInto(new(Generator), k, sim.NewRNG(1), s, Spec{Kind: CBR, Period: 10, Dest: FixedDest(0), Stop: 35})
	k.Run(200)
	if len(s.pkts) != 4 { // t = 0, 10, 20, 30
		t.Fatalf("emitted %d, want 4", len(s.pkts))
	}
}

func TestGeneratorStop(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{}
	g := AttachInto(new(Generator), k, sim.NewRNG(1), s, Spec{Kind: CBR, Period: 5, Dest: FixedDest(0)})
	k.Run(22)
	g.Stop()
	n := len(s.pkts)
	k.Run(100)
	if len(s.pkts) != n {
		t.Fatalf("generator kept emitting after Stop: %d -> %d", n, len(s.pkts))
	}
}

func TestPoissonMeanRate(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{}
	AttachInto(new(Generator), k, sim.NewRNG(2), s, Spec{Kind: Poisson, Mean: 20, Dest: FixedDest(0)})
	k.Run(200_000)
	rate := float64(len(s.pkts)) / 200_000
	if rate < 0.04 || rate > 0.06 {
		t.Fatalf("poisson rate %.4f, want ~0.05", rate)
	}
}

func TestOnOffBursts(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{}
	AttachInto(new(Generator), k, sim.NewRNG(3), s, Spec{Kind: OnOff, Mean: 100, Burst: 7, Dest: FixedDest(0)})
	k.Run(10_000)
	if len(s.pkts) == 0 || len(s.pkts)%7 != 0 {
		t.Fatalf("onoff emitted %d, want multiple of 7", len(s.pkts))
	}
}

func TestVBRFrameSizes(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{}
	AttachInto(new(Generator), k, sim.NewRNG(4), s, Spec{Kind: VBR, Period: 100, Burst: 5, Dest: FixedDest(0)})
	k.Run(10_000)
	if len(s.pkts) < 100 || len(s.pkts) > 500 {
		t.Fatalf("vbr emitted %d over 100 frames", len(s.pkts))
	}
}

func TestDeadlineAndTagPropagate(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{}
	AttachInto(new(Generator), k, sim.NewRNG(5), s, Spec{Kind: CBR, Period: 10, Deadline: 99,
		Tagged: true, Dest: FixedDest(2)})
	k.Run(50)
	for _, p := range s.pkts {
		if p.Deadline != 99 || !p.Tagged {
			t.Fatalf("packet %+v", p)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Kind: CBR, Dest: FixedDest(0)},            // no period
		{Kind: Poisson, Dest: FixedDest(0)},        // no mean
		{Kind: OnOff, Mean: 5, Dest: FixedDest(0)}, // no burst
		{Kind: VBR, Period: 5, Dest: FixedDest(0)}, // no burst
		{Kind: CBR, Period: 5},                     // no dest
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, s)
		}
	}
	good := Spec{Kind: CBR, Period: 5, Dest: FixedDest(0)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDestCoverage(t *testing.T) {
	rng := sim.NewRNG(6)
	d := UniformDest(1, 2, 3)
	seen := map[core.StationID]bool{}
	for i := 0; i < 1000; i++ {
		seen[d(rng)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform dest covered %d of 3", len(seen))
	}
}

func TestRingOffsetDest(t *testing.T) {
	d := RingOffsetDest(6, 8, 3)
	if got := d(nil); got != 1 { // (6+3) mod 8
		t.Fatalf("offset dest %d", got)
	}
}

func TestSaturate(t *testing.T) {
	s := &sink{}
	Saturate(s, core.BestEffort, 4, 250)
	if len(s.pkts) != 250 {
		t.Fatalf("preloaded %d", len(s.pkts))
	}
	for _, p := range s.pkts {
		if p.Dst != 4 || p.Class != core.BestEffort {
			t.Fatalf("packet %+v", p)
		}
	}
}

func TestEmissionCountsDeterministicProperty(t *testing.T) {
	// Property: same seed, same spec => identical emission sequence.
	err := quick.Check(func(seed uint16, mean uint8) bool {
		run := func() []core.Packet {
			k := sim.NewKernel()
			s := &sink{}
			AttachInto(new(Generator), k, sim.NewRNG(uint64(seed)), s, Spec{
				Kind: Poisson, Mean: float64(mean%50) + 2, Dest: FixedDest(0)})
			k.Run(5000)
			return s.pkts
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Seq != b[i].Seq {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}
