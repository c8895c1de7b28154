// Package wrtring is the public API of this WRT-Ring reproduction: a
// declarative scenario builder that places stations, wires up the radio
// substrate, runs either the WRT-Ring protocol (the paper's contribution)
// or the TPT baseline over identical workloads, and returns a unified
// result for comparison.
//
// Quick start:
//
//	res, err := wrtring.Run(wrtring.Scenario{
//	    N: 8, L: 2, K: 2, Duration: 50_000, Seed: 1,
//	    Sources: []wrtring.Source{{Station: wrtring.AllStations,
//	        Kind: wrtring.CBR, Class: wrtring.Premium, Period: 40,
//	        Dest: wrtring.Opposite()}},
//	})
//
// Lower-level control (joins, kills, gateways) is available through Build,
// which exposes the protocol objects.
package wrtring

import (
	"errors"
	"fmt"

	"github.com/rtnet/wrtring/internal/analysis"
	"github.com/rtnet/wrtring/internal/codes"
	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/fault"
	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
	"github.com/rtnet/wrtring/internal/topology"
	"github.com/rtnet/wrtring/internal/tpt"
	"github.com/rtnet/wrtring/internal/trace"
	"github.com/rtnet/wrtring/internal/traffic"
)

// Re-exported aliases so callers rarely need the internal packages.
type (
	// StationID identifies a MAC station.
	StationID = core.StationID
	// Class is the Diffserv-mapped service class.
	Class = core.Class
	// Packet is the MAC payload unit.
	Packet = core.Packet
	// Quota is a station's per-SAT-rotation allowance.
	Quota = core.Quota
	// Kind is a traffic arrival process.
	Kind = traffic.Kind
)

// Service classes (see §2.3 of the paper).
const (
	Premium    = core.Premium
	Assured    = core.Assured
	BestEffort = core.BestEffort
)

// Traffic kinds.
const (
	CBR     = traffic.CBR
	Poisson = traffic.Poisson
	OnOff   = traffic.OnOff
	VBR     = traffic.VBR
)

// Protocol selects the MAC under test.
type Protocol int

// Protocols.
const (
	// WRTRing is the paper's protocol.
	WRTRing Protocol = iota
	// TPT is the Token Passing Tree baseline of §3.
	TPT
)

func (p Protocol) String() string {
	if p == TPT {
		return "tpt"
	}
	return "wrt-ring"
}

// Placement selects the station layout.
type Placement int

// Placements.
const (
	// PlacementCircle seats stations around a table (default).
	PlacementCircle Placement = iota
	// PlacementClustered scatters stations in groups, producing hidden
	// terminals between clusters.
	PlacementClustered
	// PlacementRandom scatters stations uniformly.
	PlacementRandom
)

// AllStations attaches a Source to every station.
const AllStations = -1

// DestSpec picks packet destinations declaratively so scenarios stay
// serialisable and deterministic.
type DestSpec struct {
	kind int // destOffset, destFixed, destUniform, destOpposite
	arg  int
}

const (
	destOffset = iota
	destFixed
	destUniform
	// destOpposite is its own kind rather than an offset sentinel:
	// encoding Opposite() as Offset(-1) used to hijack the legitimate
	// "upstream neighbour" workload.
	destOpposite
)

// Offset addresses the station arg positions further around the ring
// (Offset(1) = downstream neighbour, Offset(-1) = upstream neighbour).
func Offset(arg int) DestSpec { return DestSpec{kind: destOffset, arg: arg} }

// Opposite addresses the station halfway around the ring — the paper's
// worst-distance workload.
func Opposite() DestSpec { return DestSpec{kind: destOpposite} }

// Fixed addresses one station.
func Fixed(id int) DestSpec { return DestSpec{kind: destFixed, arg: id} }

// Uniform addresses a uniformly random other station per packet.
func Uniform() DestSpec { return DestSpec{kind: destUniform} }

// validate rejects destinations that cannot address a ring of n stations,
// so a bad scenario fails at Build time instead of panicking mid-run.
func (d DestSpec) validate(n int) error {
	switch d.kind {
	case destFixed:
		if d.arg < 0 || d.arg >= n {
			return fmt.Errorf("wrtring: Fixed(%d) destination out of range for %d stations", d.arg, n)
		}
	case destUniform:
		if n < 2 {
			return fmt.Errorf("wrtring: Uniform() destination needs at least 2 stations, have %d", n)
		}
	}
	return nil
}

func (d DestSpec) fn(self, n int, rng *sim.RNG) traffic.DestFn {
	switch d.kind {
	case destFixed:
		return traffic.FixedDest(core.StationID(d.arg))
	case destUniform:
		return func(r *sim.RNG) core.StationID {
			t := r.Intn(n - 1)
			if t >= self {
				t++
			}
			return core.StationID(t)
		}
	case destOpposite:
		return traffic.RingOffsetDest(core.StationID(self), n, n/2)
	default:
		return traffic.RingOffsetDest(core.StationID(self), n, d.arg)
	}
}

// Source declares one traffic generator.
type Source struct {
	// Station is the source station index, or AllStations.
	Station int
	Kind    Kind
	Class   Class
	Dest    DestSpec
	// Period / Mean / Burst parameterise the arrival process (see
	// traffic.Spec).
	Period int64
	Mean   float64
	Burst  int
	// Deadline (slots) attaches a delay bound to every packet.
	Deadline int64
	// Tagged marks packets as Theorem-3 probes.
	Tagged bool
	// Start and Stop bound the generator's activity.
	Start, Stop int64
	// Preload enqueues this many packets at time zero instead of running
	// an arrival process (saturation workloads). Kind is ignored if set.
	Preload int
}

// Scenario declares a complete experiment.
type Scenario struct {
	Protocol Protocol
	N        int
	Seed     uint64

	// L and K are the uniform per-station quotas (WRT-Ring); K splits
	// k1 = ceil(K/2), k2 = floor(K/2) unless Quotas overrides everything.
	L, K   int
	Quotas []Quota

	// H is the TPT synchronous reservation per station; 0 derives H = L+K
	// so both protocols reserve the same bandwidth, as the §3.3 comparison
	// requires.
	H int64

	// Placement geometry. RangeChords sets the radio range as a multiple
	// of the circle chord (default 2.5: a handful of neighbours each
	// side); for clustered/random placements, Area and Range are used.
	Placement   Placement
	RangeChords float64
	Area        float64
	Range       float64
	Clusters    int

	// RAP (join window) configuration.
	EnableRAP     bool
	TEar, TUpdate int64
	SRound        int

	// Radio impairments.
	LossProb        float64
	ControlLossProb float64

	// Ablations.
	Removal         core.RemovalPolicy
	DisableCDMA     bool // one shared code for every station (E1)
	DisableSplice   bool // WRT-Ring: always re-form instead of splicing
	DisableRecovery bool

	SatTimeMargin int64
	TTRT          int64 // TPT override; 0 = minimal feasible

	AdmitMaxStations int
	AdmitMaxSumLK    int64
	// AutoRejoin lets stations exiled by a pure SAT loss re-enter via the
	// RAP (WRT-Ring only; requires EnableRAP).
	AutoRejoin bool

	Duration int64
	Sources  []Source

	// Churn scripts topology events (kills, leaves, joins, signal losses).
	Churn []ChurnOp
	// Fault, when non-nil, installs the deterministic fault-injection plan:
	// a Gilbert–Elliott loss channel, scheduled crash/restart events, and
	// Poisson join/leave churn (see FaultSpec).
	Fault *FaultSpec
	// Mobility, when non-nil, enables the low-mobility waypoint model.
	Mobility *Mobility
	// Trace enables the protocol event journal (see Network.Journal);
	// TraceCapacity bounds retained events (default 4096).
	Trace         bool
	TraceCapacity int
}

func (s *Scenario) withDefaults() Scenario {
	c := *s
	if c.N == 0 {
		c.N = 8
	}
	if c.L == 0 && c.K == 0 && c.Quotas == nil {
		c.L, c.K = 2, 2
	}
	if c.RangeChords == 0 {
		c.RangeChords = 2.5
	}
	if c.Duration == 0 {
		c.Duration = 20000
	}
	if c.H == 0 {
		c.H = int64(c.L + c.K)
	}
	if c.EnableRAP {
		if c.TEar == 0 {
			c.TEar = 12
		}
		if c.TUpdate == 0 {
			c.TUpdate = 4
		}
	}
	return c
}

// Network is a built scenario, exposing the protocol objects for
// fine-grained control before/while running.
type Network struct {
	Scenario Scenario
	Kernel   *sim.Kernel
	Medium   *radio.Medium
	RNG      *sim.RNG

	// Exactly one of Ring / Tree is non-nil, per Scenario.Protocol.
	Ring *core.Ring
	Tree *tpt.Network

	// Injector is the bound loss injector (nil unless Scenario.Fault.Loss
	// enabled one); tests use it to script one-shot control-frame drops.
	Injector *fault.Injector

	Positions  []radio.Position
	Generators []*traffic.Generator
	journal    *trace.Recorder
	joiners    []*core.Joiner
}

// Build constructs the radio substrate, the protocol instance, and the
// traffic sources of a scenario without running it. It is a build into a
// fresh Arena.
func Build(s Scenario) (*Network, error) {
	return NewArena().Build(s)
}

// Build constructs the scenario into the arena, resetting and reusing the
// previous build's kernel, medium, protocol carcass, trace recorder and
// working storage (a fresh arena allocates them). The seed generator and
// the component generators split from it live in the arena's scratch,
// reseeded in place, so every build draws from the seed's RNG in the
// identical split order and a reused build is observably
// indistinguishable from a fresh one. See the Arena doc for the reuse
// contract.
func (a *Arena) Build(s Scenario) (*Network, error) {
	sc := s.withDefaults()
	if sc.N < 3 {
		return nil, errors.New("wrtring: scenario needs N >= 3")
	}
	a.scratch.genUsed = 0
	rng := &a.scratch.rng
	rng.Reseed(sc.Seed)
	rng.SplitInto(&a.scratch.medRNG)
	medRNG := &a.scratch.medRNG
	if a.kernel != nil {
		a.kernel.Reset()
		a.medium.Reset(medRNG)
	} else {
		a.kernel = sim.NewKernel()
		a.medium = radio.NewMedium(a.kernel, medRNG)
	}
	kern, med := a.kernel, a.medium
	med.LossProb = sc.LossProb
	if sc.ControlLossProb > 0 {
		med.ControlLossProb = sc.ControlLossProb
	}

	var pos []radio.Position
	var txRange float64
	switch sc.Placement {
	case PlacementClustered:
		if sc.Area == 0 {
			sc.Area = 100
		}
		if sc.Range == 0 {
			sc.Range = sc.Area / 2.2
		}
		k := sc.Clusters
		if k == 0 {
			k = 3
		}
		pos = topology.Clustered(sc.N, k, sc.Area, sc.Area, sc.Area/8, rng.Split())
		txRange = sc.Range
	case PlacementRandom:
		if sc.Area == 0 {
			sc.Area = 100
		}
		if sc.Range == 0 {
			sc.Range = sc.Area / 2
		}
		pos = topology.RandomArea(sc.N, sc.Area, sc.Area, rng.Split())
		txRange = sc.Range
	default:
		pos = topology.AppendCircle(a.scratch.pos[:0], sc.N, 50)
		a.scratch.pos = pos
		txRange = topology.ChordLen(sc.N, 50) * sc.RangeChords
	}

	net := &a.scratch.net
	*net = Network{Scenario: sc, Kernel: kern, Medium: med, RNG: rng, Positions: pos,
		Generators: a.scratch.genList[:0]}

	quotas := sc.Quotas
	if quotas == nil {
		quotas = core.AppendUniformQuotas(a.scratch.quotas[:0], sc.N, sc.L, sc.K)
		a.scratch.quotas = quotas
	}
	if len(quotas) != sc.N {
		return nil, fmt.Errorf("wrtring: %d quotas for %d stations", len(quotas), sc.N)
	}

	if cap(a.scratch.nodes) < sc.N {
		a.scratch.nodes = make([]radio.NodeID, sc.N)
	}
	nodes := a.scratch.nodes[:sc.N]
	for i := range pos {
		nodes[i] = med.AddNode(pos[i], txRange, nil)
	}

	switch sc.Protocol {
	case WRTRing:
		g := topology.BuildGraph(pos, txRange)
		order, err := topology.RingOrder(pos, g)
		if err != nil {
			return nil, fmt.Errorf("wrtring: %w", err)
		}
		if cap(a.scratch.members) < sc.N {
			a.scratch.members = make([]core.Member, sc.N)
		}
		members := a.scratch.members[:sc.N]
		for oi, i := range order {
			code := radio.Code(i + 1)
			if sc.DisableCDMA {
				code = radio.Code(1)
			}
			members[oi] = core.Member{
				ID:    core.StationID(i),
				Node:  nodes[i],
				Code:  code,
				Quota: quotas[i],
			}
		}
		params := core.Params{
			TEar: sc.TEar, TUpdate: sc.TUpdate, SRound: sc.SRound,
			SatTimeMargin: sc.SatTimeMargin, Removal: sc.Removal,
			EnableRAP: sc.EnableRAP, AutoRejoin: sc.AutoRejoin,
			AdmitMaxStations: sc.AdmitMaxStations, AdmitMaxSumLK: sc.AdmitMaxSumLK,
			DisableRecovery: sc.DisableRecovery, DisableSplice: sc.DisableSplice,
		}
		prev := a.ring
		a.ring = nil // consumed even if the rebuild errors out
		rng.SplitInto(&a.scratch.protoRNG)
		ring, err := core.Rebuild(prev, kern, med, &a.scratch.protoRNG, params, members)
		if err != nil {
			return nil, err
		}
		a.ring = ring
		net.Ring = ring
	case TPT:
		if cap(a.scratch.tptMembers) < sc.N {
			a.scratch.tptMembers = make([]tpt.Member, sc.N)
		}
		members := a.scratch.tptMembers[:sc.N]
		for i := range members {
			members[i] = tpt.Member{ID: core.StationID(i), Node: nodes[i], H: sc.H}
		}
		params := tpt.Params{
			TTRT: sc.TTRT, TEar: sc.TEar, TUpdate: sc.TUpdate,
			EnableRAP: sc.EnableRAP, AdmitMaxStations: sc.AdmitMaxStations,
			DisableRecovery: sc.DisableRecovery,
		}
		prev := a.tree
		a.tree = nil
		rng.SplitInto(&a.scratch.protoRNG)
		tree, err := tpt.Rebuild(prev, kern, med, &a.scratch.protoRNG, params, members)
		if err != nil {
			return nil, err
		}
		a.tree = tree
		net.Tree = tree
	default:
		return nil, fmt.Errorf("wrtring: unknown protocol %d", sc.Protocol)
	}

	if sc.Trace && net.Ring != nil {
		capacity := sc.TraceCapacity
		if capacity == 0 {
			capacity = 4096
		}
		if a.journal != nil && a.journal.Cap() == capacity {
			a.journal.Reset()
		} else {
			a.journal = trace.NewRecorder(capacity)
		}
		net.journal = a.journal
		net.Ring.Journal = net.journal
	}
	if err := net.applyChurn(sc.Churn); err != nil {
		return nil, err
	}
	if err := net.applyFault(sc.Fault); err != nil {
		return nil, err
	}
	if sc.Mobility != nil {
		net.applyMobility(sc.Mobility)
	}
	for _, src := range sc.Sources {
		if err := net.attach(a, src); err != nil {
			return nil, err
		}
	}
	a.scratch.genList = net.Generators
	return net, nil
}

func (n *Network) target(i int) traffic.Target {
	if n.Ring != nil {
		return n.Ring.Station(core.StationID(i))
	}
	return n.Tree.Station(core.StationID(i))
}

// attach binds one source spec to its station set. a is the arena the
// network was built into; its scratch pools the station list and the
// generator structs.
func (n *Network) attach(a *Arena, src Source) error {
	stations := a.scratch.stations[:0]
	if src.Station == AllStations {
		for i := 0; i < n.Scenario.N; i++ {
			stations = append(stations, i)
		}
	} else {
		stations = append(stations, src.Station)
	}
	a.scratch.stations = stations
	if err := src.Dest.validate(n.Scenario.N); err != nil {
		return err
	}
	for _, i := range stations {
		if i < 0 || i >= n.Scenario.N {
			return fmt.Errorf("wrtring: source station %d out of range", i)
		}
		if src.Preload > 0 {
			dest := src.Dest.fn(i, n.Scenario.N, n.RNG)
			tgt := n.target(i)
			rng := n.RNG.Split()
			for p := 0; p < src.Preload; p++ {
				tgt.Enqueue(core.Packet{
					Dst: dest(rng), Class: src.Class, Seq: int64(p),
					Deadline: src.Deadline, Tagged: src.Tagged,
				})
			}
			continue
		}
		// The destination closure captures only integers, so the pooled
		// generator slot caches it keyed on those integers — repeat builds
		// of the same shape skip the closure allocation.
		slot := a.scratch.nextGenSlot()
		key := destKey{kind: src.Dest.kind, arg: src.Dest.arg, self: i, n: n.Scenario.N}
		if slot.dest == nil || slot.destKey != key {
			slot.destKey = key
			slot.dest = src.Dest.fn(i, n.Scenario.N, n.RNG)
		}
		spec := traffic.Spec{
			Kind: src.Kind, Class: src.Class, Dest: slot.dest,
			Deadline: src.Deadline, Tagged: src.Tagged,
			Period: src.Period, Mean: src.Mean, Burst: src.Burst,
			Start: sim.Time(src.Start), Stop: sim.Time(src.Stop),
		}
		n.RNG.SplitInto(&slot.rng)
		n.Generators = append(n.Generators, traffic.AttachInto(&slot.gen, n.Kernel, &slot.rng, n.target(i), spec))
	}
	return nil
}

// Start launches the protocol (idempotent); Build callers that drive the
// kernel manually use this.
func (n *Network) Start() {
	if n.Ring != nil {
		n.Ring.Start()
	} else {
		n.Tree.Start()
	}
}

// RunFor starts (if needed) and advances the simulation by d slots,
// returning the result snapshot. Any ring-invariant violation recorded by
// the always-on recovery checker (see internal/core) fails loudly here: a
// violated invariant means the recovery machinery itself broke, and no
// measurement taken afterwards can be trusted. The batch runner converts
// the panic into a per-job error.
func (n *Network) RunFor(d int64) *Result {
	n.Start()
	n.Kernel.Run(n.Kernel.Now() + sim.Time(d))
	res := n.Snapshot()
	if n.Ring != nil && n.Ring.Metrics.InvariantViolationTotal > 0 {
		panic(fmt.Sprintf("wrtring: %d ring invariant violation(s), first: %s",
			n.Ring.Metrics.InvariantViolationTotal, n.Ring.Metrics.InvariantViolations[0]))
	}
	return res
}

// Run executes the scenario for its configured duration.
func (n *Network) Run() *Result {
	return n.RunFor(n.Scenario.Duration)
}

// Run builds and runs a scenario in one call.
func Run(s Scenario) (*Result, error) {
	net, err := Build(s)
	if err != nil {
		return nil, err
	}
	return net.Run(), nil
}

// Result is the unified measurement snapshot both protocols produce.
type Result struct {
	Protocol Protocol
	N        int
	Slots    int64

	Rounds       int64
	MeanRotation float64
	MaxRotation  int64
	// HopsPerRound is the control signal's link traversals per rotation:
	// N for the SAT, 2·(N−1) for the token (§3.2.1).
	HopsPerRound float64

	// RotationBound is Theorem 1 for WRT-Ring, 2·TTRT for TPT — the §3.3
	// loss-reaction comparison.
	RotationBound int64
	// MeanRotationBound is Proposition 3 (WRT-Ring) or TTRT (TPT).
	MeanRotationBound int64

	Delivered  [3]int64
	MeanDelay  [3]float64
	MaxDelay   [3]float64
	Throughput float64

	Detections    int64
	Splices       int64
	Reformations  int64 // tree rebuilds for TPT
	FalseAlarms   int64
	DetectLatency float64
	HealLatency   float64

	RAPs, Joins int64

	// Restarts counts crashed stations powered back on; FaultDropped counts
	// frames destroyed by the fault-injection layer; InvariantChecks and
	// InvariantViolations report the recovery invariant audit (WRT-Ring).
	Restarts            int64
	FaultDropped        int64
	InvariantChecks     int64
	InvariantViolations int64

	RadioSent, RadioDelivered, RadioCollisions, RadioLost int64

	Dead bool
}

// Snapshot collects the current metrics without advancing time.
func (n *Network) Snapshot() *Result {
	r := &Result{Protocol: n.Scenario.Protocol, Slots: int64(n.Kernel.Now())}
	r.RadioSent, r.RadioDelivered = n.Medium.Sent, n.Medium.Delivered
	r.RadioCollisions, r.RadioLost = n.Medium.Collisions, n.Medium.Lost
	if n.Injector != nil {
		r.FaultDropped = n.Injector.Dropped + n.Injector.DroppedScripted
	}
	if n.Ring != nil {
		m := &n.Ring.Metrics
		p := n.Ring.RingParams()
		r.N = n.Ring.N()
		r.Rounds = m.Rounds
		r.MeanRotation = m.Rotation.Mean()
		r.MaxRotation = m.MaxRotation
		if m.Rounds > 0 {
			r.HopsPerRound = float64(p.N)
		}
		r.RotationBound = analysis.SatTimeBound(p)
		r.MeanRotationBound = analysis.MeanRotationBound(p)
		for c := 0; c < 3; c++ {
			r.Delivered[c] = m.Delivered[c]
			r.MeanDelay[c] = m.Delay[c].Mean()
			r.MaxDelay[c] = m.Delay[c].Max()
		}
		r.Throughput = m.Throughput(r.Slots)
		r.Detections, r.Splices, r.Reformations = m.Detections, m.Splices, m.Reformations
		r.FalseAlarms = m.FalseAlarms
		r.DetectLatency, r.HealLatency = m.DetectLatency.Mean(), m.HealLatency.Mean()
		r.RAPs, r.Joins = m.RAPs, m.Joins
		r.Restarts = m.Restarts
		r.InvariantChecks = m.InvariantChecks
		r.InvariantViolations = m.InvariantViolationTotal
		r.Dead = m.Dead
		return r
	}
	m := &n.Tree.Metrics
	p := n.Tree.TPTParams()
	r.N = n.Tree.N()
	r.Rounds = m.Rounds
	r.MeanRotation = m.Rotation.Mean()
	r.MaxRotation = m.MaxRotation
	if m.Rounds > 0 {
		r.HopsPerRound = float64(m.TokenHops) / float64(m.Rounds)
	}
	r.RotationBound = analysis.TPTLossReaction(p)
	r.MeanRotationBound = p.TTRT
	// TPT has two queues: sync ↔ Premium, async ↔ BestEffort.
	r.Delivered[Premium] = m.Delivered[0]
	r.Delivered[BestEffort] = m.Delivered[1]
	r.MeanDelay[Premium] = m.Delay[0].Mean()
	r.MeanDelay[BestEffort] = m.Delay[1].Mean()
	r.MaxDelay[Premium] = m.Delay[0].Max()
	r.MaxDelay[BestEffort] = m.Delay[1].Max()
	r.Throughput = m.Throughput(r.Slots)
	r.Detections = m.Detections
	r.Splices = m.ClaimSuccesses
	r.Reformations = m.Rebuilds
	r.FalseAlarms = m.FalseAlarms
	r.DetectLatency, r.HealLatency = m.DetectLatency.Mean(), m.HealLatency.Mean()
	r.RAPs, r.Joins = m.RAPs, m.Joins
	r.Dead = m.Dead
	return r
}

// BoundsFor returns the closed-form §3.3 bounds for a scenario without
// running it: the SAT and token idle round trips and the loss-reaction
// bounds, under equal reserved bandwidth.
func BoundsFor(s Scenario) (satRT, tokenRT, satLoss, tokenLoss int64) {
	sc := s.withDefaults()
	ring := analysis.Uniform(sc.N, sc.L, sc.K, trapOf(sc))
	sumH := int64(sc.N) * sc.H
	tptP := analysis.TPTParams{N: sc.N, TProc: 1, TProp: 0, TRap: trapOf(sc), SumH: sumH}
	tptP.TTRT = sc.TTRT
	if tptP.TTRT == 0 {
		tptP.TTRT = analysis.MinimalTTRT(tptP)
	}
	satRT = analysis.SatRoundTrip(sc.N, 1, 0, trapOf(sc))
	tokenRT = analysis.TokenRoundTrip(tptP)
	satLoss = analysis.WRTLossReaction(ring)
	tokenLoss = analysis.TPTLossReaction(tptP)
	return
}

func trapOf(sc Scenario) int64 {
	if !sc.EnableRAP {
		return 0
	}
	return sc.TEar + sc.TUpdate
}

// CodesFor returns the CDMA code assignment a scenario would use —
// exposed for the code-assignment example and tests.
func CodesFor(s Scenario) (codes.Assignment, error) {
	sc := s.withDefaults()
	if sc.Placement != PlacementCircle {
		return nil, errors.New("wrtring: CodesFor supports circle placements")
	}
	pos := topology.Circle(sc.N, 50)
	g := topology.BuildGraph(pos, topology.ChordLen(sc.N, 50)*sc.RangeChords)
	return codes.TwoHopColoring(g), nil
}
