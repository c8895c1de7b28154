package wrtring

import (
	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
	"github.com/rtnet/wrtring/internal/tpt"
	"github.com/rtnet/wrtring/internal/trace"
	"github.com/rtnet/wrtring/internal/traffic"
)

// Arena is a reusable simulation allocation pool for workloads that build
// and run many scenarios back to back (sweep grids, the serve job queue).
// The package-level Build is a build into a fresh Arena; every Build after
// the first resets and reuses the kernel's event structs and heap, the
// radio's node table and reach matrix, the protocol layer's station
// structs, maps and queue arrays, and the trace recorder — the whole
// per-run setup cost that dominates small-scenario grids.
//
// Reuse is observably invisible: every build derives all protocol state
// from the scenario alone and consumes the seed's RNG in the identical
// order, so a network built into a used arena produces byte-identical
// traces and stats to one built into a fresh arena (asserted by
// TestArenaReuseByteIdentical against the golden hot-path matrix). This
// holds regardless of how the previous run ended — completed, cancelled
// mid-run, or faulted — because Build resets every component
// unconditionally before constructing the next network.
//
// An Arena is not safe for concurrent use, and building invalidates every
// Network previously built from the same arena (they share the underlying
// simulation state). Each worker goroutine owns its own arena; see
// runner.Pool.
type Arena struct {
	kernel  *sim.Kernel
	medium  *radio.Medium
	ring    *core.Ring
	tree    *tpt.Network
	journal *trace.Recorder
	scratch buildScratch
}

// buildScratch recycles the per-build working storage that is either
// consumed during construction or owned by the Network being built — which
// the next Build invalidates wholesale, so handing the same backing out
// again is safe by the arena contract.
type buildScratch struct {
	rng      sim.RNG // the seed generator (becomes Network.RNG)
	medRNG   sim.RNG // the medium's randomness source
	protoRNG sim.RNG // the protocol instance's randomness source
	net      Network

	pos        []radio.Position
	quotas     []core.Quota
	nodes      []radio.NodeID
	members    []core.Member
	tptMembers []tpt.Member
	stations   []int
	genList    []*traffic.Generator

	// gens pools Generator structs (with their private RNGs) so repeated
	// builds re-arm the same generators: AttachInto keeps the step closure
	// bound to the struct, so steady-state attachment allocates nothing.
	gens    []*genSlot
	genUsed int
}

type genSlot struct {
	gen traffic.Generator
	rng sim.RNG
	// dest caches the destination closure built for destKey. DestSpec.fn
	// derives the closure from plain integers and never draws randomness at
	// creation (the per-packet draw happens at call time, against the RNG
	// passed in), so reusing it when the key matches is stream-invisible.
	// Slots are handed out in build order, so a grid sweeping one scenario
	// shape hits the cache on every build after the first.
	destKey destKey
	dest    traffic.DestFn
}

// destKey identifies the destination closure a DestSpec produces for one
// source station: the spec's kind and argument plus the (self, n) pair the
// closure captures.
type destKey struct {
	kind, arg, self, n int
}

// nextGenSlot hands out the next pooled generator slot, growing the pool on
// first use.
func (s *buildScratch) nextGenSlot() *genSlot {
	if s.genUsed == len(s.gens) {
		s.gens = append(s.gens, &genSlot{})
	}
	g := s.gens[s.genUsed]
	s.genUsed++
	return g
}

// NewArena returns an empty arena. The first Build populates it.
func NewArena() *Arena {
	return &Arena{}
}
