// Package traffic provides the workload generators used by the examples and
// the benchmark harness: constant-bit-rate (voice-like), Poisson, bursty
// on/off, and VBR video-like sources, plus destination-selection helpers.
// Generators drive anything with an Enqueue method, so the same workload
// runs unchanged on WRT-Ring and on the TPT baseline.
package traffic

import (
	"fmt"

	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/sim"
)

// Target is the station-side interface a generator feeds (both
// core.Station and tpt.Station satisfy it).
type Target interface {
	Enqueue(core.Packet)
}

// DestFn picks a destination for each generated packet.
type DestFn func(rng *sim.RNG) core.StationID

// FixedDest always returns id.
func FixedDest(id core.StationID) DestFn {
	return func(*sim.RNG) core.StationID { return id }
}

// UniformDest picks uniformly from ids.
func UniformDest(ids ...core.StationID) DestFn {
	if len(ids) == 0 {
		panic("traffic: UniformDest with no candidates")
	}
	return func(rng *sim.RNG) core.StationID { return ids[rng.Intn(len(ids))] }
}

// RingOffsetDest returns the station offset positions further around a ring
// of n stations with contiguous IDs starting at 0 — "neighbour" (offset 1)
// and "opposite" (offset n/2) workloads from the evaluation. Negative
// offsets address upstream stations (Go's % keeps the dividend's sign, so
// the result is re-normalised into [0, n)).
func RingOffsetDest(self core.StationID, n, offset int) DestFn {
	d := core.StationID((((int(self) + offset) % n) + n) % n)
	return func(*sim.RNG) core.StationID { return d }
}

// Spec describes one traffic source.
type Spec struct {
	// Kind selects the arrival process.
	Kind Kind
	// Class is the service class of generated packets.
	Class core.Class
	// Dest picks each packet's destination.
	Dest DestFn
	// Deadline, when > 0, is attached to each packet (slots).
	Deadline int64
	// Tagged marks generated packets as Theorem-3 probes.
	Tagged bool

	// Period is the CBR inter-arrival / the VBR frame interval (slots).
	Period int64
	// Mean is the Poisson mean inter-arrival / the on-off mean idle (slots).
	Mean float64
	// Burst is the on-off burst length / the VBR max packets per frame.
	Burst int

	// Start and Stop bound the generator's activity ([Start, Stop); Stop=0
	// means "until the simulation ends").
	Start, Stop sim.Time
}

// Kind enumerates the arrival processes.
type Kind int

// Arrival processes.
const (
	// CBR emits one packet every Period slots (voice-like).
	CBR Kind = iota
	// Poisson emits with exponential inter-arrivals of mean Mean.
	Poisson
	// OnOff alternates Burst back-to-back packets with exponential idle
	// gaps of mean Mean (data bursts).
	OnOff
	// VBR emits a random batch of 1..Burst packets every Period slots
	// (video frames of varying size).
	VBR
)

func (k Kind) String() string {
	switch k {
	case CBR:
		return "cbr"
	case Poisson:
		return "poisson"
	case OnOff:
		return "onoff"
	case VBR:
		return "vbr"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Generator is a running source bound to a target station.
type Generator struct {
	kernel *sim.Kernel
	rng    *sim.RNG
	target Target
	spec   Spec

	// Emitted counts packets handed to the target.
	Emitted int64
	seq     int64
	stopped bool

	// stepFn is g.step bound once at AttachInto; passing the method value
	// directly to After would allocate a fresh closure per arrival.
	stepFn func()
}

// Validate rejects nonsensical specs.
func (s *Spec) Validate() error {
	if s.Dest == nil {
		return fmt.Errorf("traffic: spec %v has no destination", s.Kind)
	}
	switch s.Kind {
	case CBR, VBR:
		if s.Period <= 0 {
			return fmt.Errorf("traffic: %v needs Period > 0", s.Kind)
		}
	case Poisson, OnOff:
		if s.Mean <= 0 {
			return fmt.Errorf("traffic: %v needs Mean > 0", s.Kind)
		}
	}
	if s.Kind == OnOff || s.Kind == VBR {
		if s.Burst <= 0 {
			return fmt.Errorf("traffic: %v needs Burst > 0", s.Kind)
		}
	}
	return nil
}

// AttachInto starts a generator for the spec against the target, in a
// caller-provided Generator struct so arena builds can recycle generators
// across scenarios. The previous incarnation of g must no longer be running
// (its events recycled by a kernel reset); its stepFn binding is kept,
// since it captures g itself. It panics on an invalid spec (programmer
// error in scenario construction).
func AttachInto(g *Generator, k *sim.Kernel, rng *sim.RNG, target Target, spec Spec) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	fn := g.stepFn
	*g = Generator{kernel: k, rng: rng, target: target, spec: spec}
	if fn == nil {
		fn = g.step
	}
	g.stepFn = fn
	start := spec.Start
	if start < k.Now() {
		start = k.Now()
	}
	k.At(start, sim.PrioTraffic, g.stepFn)
	return g
}

// Stop halts the generator after the current event.
func (g *Generator) Stop() { g.stopped = true }

func (g *Generator) active() bool {
	if g.stopped {
		return false
	}
	if g.spec.Stop > 0 && g.kernel.Now() >= g.spec.Stop {
		return false
	}
	return true
}

func (g *Generator) emit(n int) {
	for i := 0; i < n; i++ {
		g.seq++
		g.Emitted++
		g.target.Enqueue(core.Packet{
			Dst:      g.spec.Dest(g.rng),
			Class:    g.spec.Class,
			Seq:      g.seq,
			Deadline: g.spec.Deadline,
			Tagged:   g.spec.Tagged,
		})
	}
}

func (g *Generator) step() {
	if !g.active() {
		return
	}
	var next sim.Time
	switch g.spec.Kind {
	case CBR:
		g.emit(1)
		next = sim.Time(g.spec.Period)
	case Poisson:
		g.emit(1)
		next = sim.Time(g.rng.ExpSlots(g.spec.Mean))
	case OnOff:
		g.emit(g.spec.Burst)
		next = sim.Time(g.rng.ExpSlots(g.spec.Mean))
	case VBR:
		g.emit(1 + g.rng.Intn(g.spec.Burst))
		next = sim.Time(g.spec.Period)
	}
	if next < 1 {
		next = 1
	}
	g.kernel.After(next, sim.PrioTraffic, g.stepFn)
}

// Saturate pre-loads the target with count packets of each class/dest pair,
// the standard way to measure capacity and worst-case rotation.
func Saturate(target Target, class core.Class, dest core.StationID, count int) {
	for i := 0; i < count; i++ {
		target.Enqueue(core.Packet{Dst: dest, Class: class, Seq: int64(i)})
	}
}
