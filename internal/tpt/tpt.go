package tpt

import (
	"fmt"
	"slices"

	"github.com/rtnet/wrtring/internal/analysis"
	"github.com/rtnet/wrtring/internal/codes"
	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
	"github.com/rtnet/wrtring/internal/stats"
	"github.com/rtnet/wrtring/internal/timedtoken"
	"github.com/rtnet/wrtring/internal/topology"
)

// sharedCode is the single channel all TPT stations use; the protocol has
// no CDMA, so only the token holder may transmit without collisions.
const sharedCode radio.Code = 1

// Params configures a TPT network.
type Params struct {
	// TTRT is the negotiated target token rotation time; 0 derives the
	// minimum feasible value from equation (7).
	TTRT int64
	// TEar and TUpdate are the RAP phases, as in WRT-Ring.
	TEar, TUpdate int64
	// EnableRAP turns the periodic join window at the root on.
	EnableRAP bool
	// AdmitMaxStations caps membership during joins (0 = unlimited).
	AdmitMaxStations int
	// RebuildSlotsPerStation models the build-tree procedure cost after a
	// failed claim: downtime = RebuildSlotsPerStation × N. Default 4, the
	// same constant the WRT-Ring re-formation uses, so the comparison
	// isolates protocol structure rather than constants.
	RebuildSlotsPerStation int64
	// DisableRecovery turns the token-loss timers off (ablation).
	DisableRecovery bool
}

// TRap returns the RAP length.
func (p *Params) TRap() int64 {
	if !p.EnableRAP {
		return 0
	}
	return p.TEar + p.TUpdate
}

// Member describes one founding TPT station.
type Member struct {
	ID   StationID
	Node radio.NodeID
	// H is the synchronous (real-time) reservation per token rotation, in
	// slots.
	H int64
}

// NetworkMetrics aggregates network-wide TPT measurements.
type NetworkMetrics struct {
	Rotation    stats.Welford
	MaxRotation int64
	Rounds      int64
	TokenHops   int64

	Delivered [2]int64 // [sync, async]
	Delay     [2]stats.Welford

	RAPs        int64
	Joins       int64
	JoinRejects int64

	Kills               int64
	Detections          int64
	ClaimSuccesses      int64
	ClaimFailures       int64
	Rebuilds            int64
	FalseAlarms         int64
	TokenInjectedLosses int64
	Collisions          int64
	DetectLatency       stats.Welford
	HealLatency         stats.Welford
	RecoveryEvents      []core.RecoveryEvent

	Dead        bool
	DeathReason string
}

// TotalDelivered sums deliveries over both classes.
func (m *NetworkMetrics) TotalDelivered() int64 { return m.Delivered[0] + m.Delivered[1] }

// Throughput returns delivered packets per slot over the horizon.
func (m *NetworkMetrics) Throughput(slots int64) float64 {
	if slots <= 0 {
		return 0
	}
	return float64(m.TotalDelivered()) / float64(slots)
}

// TaggedSample is a Theorem-3-style probe measurement on TPT, for the
// cross-protocol access-delay comparison.
type TaggedSample struct {
	Station StationID
	X       int
	Wait    int64
}

// Network is a running TPT instance.
type Network struct {
	kernel *sim.Kernel
	medium *radio.Medium
	rng    *sim.RNG
	params Params

	stations  map[StationID]*Station
	tickOrder []*Station
	joiners   map[StationID]*Joiner

	parent   map[StationID]StationID
	children map[StationID][]StationID
	root     StationID
	tour     []StationID
	tourIdx  map[StationID]int // first tour position of each station

	ttrt         int64
	currentRound int64
	epoch        int64
	pausedUntil  sim.Time
	dead         bool
	started      bool
	lastRootSeen sim.Time
	rootSeen     bool

	dropNextToken bool
	tokenLostAt   sim.Time
	pendingBids   []joinBid

	// OnDeliver observes every delivered packet when set.
	OnDeliver func(core.Packet, sim.Time)

	Metrics NetworkMetrics
	Tagged  []TaggedSample

	// stationPool recycles Station structs (queue backing arrays and
	// timed-token accounts included) across Rebuild.
	stationPool []*Station
	// ts recycles buildTree's and rebuildTickOrder's working storage across
	// Rebuild (and across mid-run reforms).
	ts treeScratch
}

// treeScratch holds the recycled working storage of buildTree: the active
// member list, the connectivity graph carved from flat backing arrays, the
// BFS tree builder, and the Euler walk. All of it is dead between calls, so
// handing the same backing out again is safe.
type treeScratch struct {
	members []*Station
	deg     []int
	adj     []uint64
	flat    []int
	g       codes.Graph
	builder topology.TreeBuilder
	walk    []int
	ids     []StationID
}

// New builds a TPT network over placed radio nodes, with a BFS spanning
// tree rooted at members[0].
func New(k *sim.Kernel, m *radio.Medium, rng *sim.RNG, params Params, members []Member) (*Network, error) {
	return build(nil, k, m, rng, params, members)
}

// Rebuild is New over the carcass of a previous network: maps, slices and
// Station structs are recycled instead of reallocated. The previous network
// is consumed; the kernel and medium must already have been Reset. All
// protocol state is re-derived from the arguments, so a rebuilt network is
// observably identical to a fresh one.
func Rebuild(prev *Network, k *sim.Kernel, m *radio.Medium, rng *sim.RNG, params Params, members []Member) (*Network, error) {
	return build(prev, k, m, rng, params, members)
}

// recycleInto strips a consumed network down to its reusable allocations.
func (n *Network) recycleInto(k *sim.Kernel, m *radio.Medium, rng *sim.RNG, params Params) {
	n.stationPool = append(n.stationPool, n.tickOrder...)
	clear(n.stations)
	clear(n.joiners)
	for i := range n.tickOrder {
		n.tickOrder[i] = nil
	}
	*n = Network{
		kernel:      k,
		medium:      m,
		rng:         rng,
		params:      params,
		stations:    n.stations,
		joiners:     n.joiners,
		tickOrder:   n.tickOrder[:0],
		parent:      n.parent,   // cleared by buildTree
		children:    n.children, // cleared by buildTree
		tour:        n.tour[:0],
		tourIdx:     n.tourIdx, // cleared by buildTree
		tokenLostAt: -1,
		pendingBids: n.pendingBids[:0],
		Metrics:     NetworkMetrics{RecoveryEvents: n.Metrics.RecoveryEvents[:0]},
		Tagged:      n.Tagged[:0],
		stationPool: n.stationPool,
		ts:          n.ts,
	}
}

// takeStation pops a pooled Station (cleared for reuse) or allocates.
func (n *Network) takeStation() *Station {
	if k := len(n.stationPool); k > 0 {
		st := n.stationPool[k-1]
		n.stationPool[k-1] = nil
		n.stationPool = n.stationPool[:k-1]
		st.reinit()
		return st
	}
	return &Station{}
}

func build(prev *Network, k *sim.Kernel, m *radio.Medium, rng *sim.RNG, params Params, members []Member) (*Network, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("tpt: need at least 2 stations, have %d", len(members))
	}
	if params.RebuildSlotsPerStation <= 0 {
		params.RebuildSlotsPerStation = 4
	}
	if params.EnableRAP && params.TEar < 8 {
		return nil, fmt.Errorf("tpt: TEar=%d too short for the join handshake", params.TEar)
	}
	n := prev
	if n != nil {
		n.recycleInto(k, m, rng, params)
	} else {
		n = &Network{
			kernel:      k,
			medium:      m,
			rng:         rng,
			params:      params,
			stations:    map[StationID]*Station{},
			joiners:     map[StationID]*Joiner{},
			tokenLostAt: -1,
		}
	}
	var sumH int64
	for _, mb := range members {
		if _, dup := n.stations[mb.ID]; dup {
			return nil, fmt.Errorf("tpt: duplicate station ID %d", mb.ID)
		}
		st := n.takeStation()
		st.net = n
		st.ID = mb.ID
		st.Node = mb.Node
		st.active = true
		if st.account == nil {
			st.account = timedtoken.NewAccount(0, mb.H) // TTRT set below
		} else {
			*st.account = timedtoken.Account{H: mb.H}
		}
		n.stations[mb.ID] = st
		m.SetReceiver(mb.Node, st)
		m.Listen(mb.Node, sharedCode)
		sumH += mb.H
	}
	n.root = members[0].ID
	n.rebuildTickOrder()
	if err := n.buildTree(n.root); err != nil {
		return nil, err
	}
	n.ttrt = params.TTRT
	if n.ttrt == 0 {
		n.ttrt = analysis.MinimalTTRT(analysis.TPTParams{
			N: len(members), TProc: 1, TProp: 0, TRap: params.TRap(), SumH: sumH,
		})
	}
	for _, st := range n.tickOrder {
		st.account.TTRT = n.ttrt
		if err := st.account.Validate(); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Start issues the token at the root and begins the slot loop.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	rootSt := n.stations[n.root]
	rootSt.hasToken = true
	rootSt.tokenPos = 0
	rootSt.granted = true
	rootSt.syncLeft, rootSt.asyncLeft = rootSt.account.OnArrival(int64(n.kernel.Now()))
	if !n.params.DisableRecovery {
		for _, st := range n.tickOrder {
			if st != rootSt {
				st.armLossTimer(n.kernel.Now())
			}
		}
	}
	n.kernel.EverySlot(n.kernel.Now(), sim.PrioSlot, func(t sim.Time) bool {
		if n.dead {
			return false
		}
		for _, st := range n.tickOrder {
			st.tick(t)
		}
		return true
	})
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Station returns the MAC entity with the given ID (nil if absent).
func (n *Network) Station(id StationID) *Station { return n.stations[id] }

// TTRT returns the negotiated target token rotation time.
func (n *Network) TTRT() int64 { return n.ttrt }

// N returns the number of active tree members.
func (n *Network) N() int {
	c := 0
	for _, st := range n.tickOrder {
		if st.active {
			c++
		}
	}
	return c
}

// Dead reports whether the tree was lost and could not be rebuilt.
func (n *Network) Dead() bool { return n.dead }

// Params returns the network's configuration.
func (n *Network) Params() Params { return n.params }

// TourLen returns the token hops per round: 2·(N−1) for N tree members.
func (n *Network) TourLen() int { return len(n.tour) }

// TPTParams exports the closed-form quantities for internal/analysis.
func (n *Network) TPTParams() analysis.TPTParams {
	var sumH int64
	for _, st := range n.tickOrder {
		if st.active {
			sumH += st.account.H
		}
	}
	return analysis.TPTParams{
		N: n.N(), TProc: 1, TProp: 0, TRap: n.params.TRap(), SumH: sumH, TTRT: n.ttrt,
	}
}

func (n *Network) rootID() StationID { return n.root }

func (n *Network) paused(now sim.Time) bool { return n.dead || now < n.pausedUntil }

func (n *Network) pauseUntil(t sim.Time) {
	if t > n.pausedUntil {
		n.pausedUntil = t
	}
}

func (n *Network) rebuildTickOrder() {
	n.tickOrder = n.tickOrder[:0]
	ids := n.ts.ids[:0]
	for id := range n.stations {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		n.tickOrder = append(n.tickOrder, n.stations[id])
	}
	n.ts.ids = ids
}

// buildTree computes the BFS spanning tree over current connectivity and
// derives the Euler tour the token follows. All working storage — the
// member list, the connectivity graph, the BFS tree, the Euler walk — comes
// from the recycled treeScratch, so a rebuild allocates nothing in steady
// state.
func (n *Network) buildTree(root StationID) error {
	s := &n.ts
	members := s.members[:0]
	ri := -1
	for _, st := range n.tickOrder {
		if st.active {
			if st.ID == root {
				ri = len(members)
			}
			members = append(members, st)
		}
	}
	s.members = members
	if ri < 0 {
		return fmt.Errorf("tpt: root %d not active", root)
	}
	m := len(members)
	// Connectivity graph over active members, carved from one flat backing
	// array (mirroring topology.BuildGraph): pass one records each connected
	// pair in a bitset plus per-member degrees, pass two fills every
	// adjacency list to exactly its capacity in the same ascending order.
	s.deg = growInts(s.deg, m)
	for i := range s.deg {
		s.deg[i] = 0
	}
	words := (m*m + 63) / 64
	if cap(s.adj) < words {
		s.adj = make([]uint64, words)
	}
	s.adj = s.adj[:words]
	for i := range s.adj {
		s.adj[i] = 0
	}
	total := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if n.medium.Connected(members[i].Node, members[j].Node) {
				b := i*m + j
				s.adj[b/64] |= 1 << (b % 64)
				s.deg[i]++
				s.deg[j]++
				total += 2
			}
		}
	}
	if cap(s.g) < m {
		s.g = make(codes.Graph, m)
	}
	s.g = s.g[:m]
	s.flat = growInts(s.flat, total)
	off := 0
	for i := 0; i < m; i++ {
		s.g[i] = s.flat[off : off : off+s.deg[i]]
		off += s.deg[i]
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			b := i*m + j
			if s.adj[b/64]&(1<<(b%64)) != 0 {
				s.g[i] = append(s.g[i], j)
				s.g[j] = append(s.g[j], i)
			}
		}
	}
	tree, err := s.builder.Build(s.g, ri)
	if err != nil {
		return fmt.Errorf("tpt: %w", err)
	}
	if n.parent == nil {
		n.parent = map[StationID]StationID{}
		n.children = map[StationID][]StationID{}
	} else {
		clear(n.parent)
		// Truncate in place instead of clear: the per-parent child lists
		// keep their backing arrays. Stale keys hold empty lists, which no
		// reader distinguishes from absent ones.
		for k, cs := range n.children {
			n.children[k] = cs[:0]
		}
	}
	for i, st := range members {
		if tree.Parent[i] >= 0 {
			p := members[tree.Parent[i]].ID
			n.parent[st.ID] = p
			n.children[p] = append(n.children[p], st.ID)
		}
	}
	for _, cs := range n.children {
		slices.Sort(cs)
	}
	n.root = root
	s.walk = tree.AppendEulerTour(s.walk[:0])
	n.tour = n.tour[:0]
	for _, w := range s.walk[:len(s.walk)-1] { // last element repeats the root
		n.tour = append(n.tour, members[w].ID)
	}
	if len(n.tour) == 0 {
		n.tour = append(n.tour, root)
	}
	if n.tourIdx == nil {
		n.tourIdx = map[StationID]int{}
	} else {
		clear(n.tourIdx)
	}
	for i, id := range n.tour {
		if _, seen := n.tourIdx[id]; !seen {
			n.tourIdx[id] = i
		}
	}
	return nil
}

// tourNext returns the station and position following pos on the tour.
func (n *Network) tourNext(pos int) (StationID, int) {
	np := (pos + 1) % len(n.tour)
	return n.tour[np], np
}

func (n *Network) tourPosOf(id StationID) int {
	if p, ok := n.tourIdx[id]; ok {
		return p
	}
	return 0
}

func (n *Network) roundOf(pos int) int64 { return n.currentRound }

// growInts returns s resized to n, reusing its backing array when wide
// enough. Contents are unspecified; callers overwrite every element.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// nextHop routes over the tree: descend toward dst if dst is in our
// subtree, otherwise climb to the parent.
func (n *Network) nextHop(from, dst StationID) StationID {
	// Path from dst up to the root.
	onPath := map[StationID]StationID{} // ancestor -> next step down toward dst
	cur := dst
	for {
		p, ok := n.parent[cur]
		if !ok {
			break
		}
		onPath[p] = cur
		cur = p
	}
	if next, ok := onPath[from]; ok {
		return next
	}
	if p, ok := n.parent[from]; ok {
		return p
	}
	return dst // root with dst not below: unreachable; deliver best-effort
}

// onRootVisit fires on the token's first visit to the root each round:
// rotation accounting and, when enabled, the RAP (§3.1.1).
func (n *Network) onRootVisit(now sim.Time) {
	if n.rootSeen {
		rot := int64(now - n.lastRootSeen)
		n.Metrics.Rotation.Add(float64(rot))
		if rot > n.Metrics.MaxRotation {
			n.Metrics.MaxRotation = rot
		}
	}
	n.rootSeen = true
	n.lastRootSeen = now
	n.Metrics.Rounds++

	if n.params.EnableRAP {
		n.startRAP(now)
	}
}

func (n *Network) recordTaggedWait(s *Station, p core.Packet, wait int64) {
	n.Tagged = append(n.Tagged, TaggedSample{Station: s.ID, X: p.AheadOnArrival, Wait: wait})
}

// KillStation powers a station off silently; the token dies when it next
// enters the victim, and — unlike WRT-Ring's splice — the whole tree must
// be rebuilt (§3.3).
func (n *Network) KillStation(id StationID) {
	st, ok := n.stations[id]
	if !ok || !st.active {
		return
	}
	n.tokenLostAt = n.kernel.Now()
	st.active = false
	st.lossTimer.Cancel()
	st.claimDeadline.Cancel()
	n.medium.SetAlive(st.Node, false)
	n.Metrics.Kills++
}

// LoseTokenOnce makes the next token transmission vanish in the air.
func (n *Network) LoseTokenOnce() { n.dropNextToken = true }

// claimSucceeded re-issues the token at the claim originator: the tree is
// intact (pure signal loss).
func (n *Network) claimSucceeded(s *Station, now sim.Time) {
	s.claimOutstanding = nil
	s.claimDeadline.Cancel()
	n.Metrics.ClaimSuccesses++
	n.Metrics.HealLatency.Add(float64(now - s.claimDetectedAt))
	n.Metrics.RecoveryEvents = append(n.Metrics.RecoveryEvents, core.RecoveryEvent{
		Kind: "claim", Failed: -1, DetectedAt: s.claimDetectedAt, HealedAt: now,
	})
	n.tokenLostAt = -1
	n.resetRotations()
	s.hasToken = true
	s.tokenPos = n.tourPosOf(s.ID)
	s.granted = false
}

func (n *Network) resetRotations() {
	n.rootSeen = false
	for _, st := range n.tickOrder {
		st.account.Reset()
		st.account.TTRT = n.ttrt
		st.granted = false
	}
}

// rebuild runs the build-tree procedure after a failed claim: transmissions
// stop, a new BFS tree is computed over surviving connectivity, the TTRT is
// renegotiated, and a fresh token starts at the reporter (§3.1.3).
func (n *Network) rebuild(reporter StationID, now sim.Time) {
	if n.dead {
		return
	}
	n.epoch++
	epoch := n.epoch
	n.Metrics.Rebuilds++

	for _, st := range n.tickOrder {
		st.lossTimer.Cancel()
		st.claimDeadline.Cancel()
		st.hasToken = false
		st.claimOutstanding = nil
		st.pendingClaim = nil
		st.granted = false
	}

	alive := 0
	for _, st := range n.tickOrder {
		if st.active && n.medium.Alive(st.Node) {
			alive++
		}
	}
	if alive < 2 {
		n.die("fewer than 2 survivors")
		return
	}
	rep := n.stations[reporter]
	if rep == nil || !rep.active {
		n.die("reporter vanished")
		return
	}
	if err := n.buildTree(reporter); err != nil {
		n.die(err.Error())
		return
	}
	n.ttrt = n.params.TTRT
	if n.ttrt == 0 {
		n.ttrt = analysis.MinimalTTRT(n.TPTParams())
	}
	n.resetRotations()
	n.tokenLostAt = -1

	downtime := sim.Time(n.params.RebuildSlotsPerStation * int64(alive))
	n.pauseUntil(now + downtime)
	detectedAt := now
	n.kernel.At(now+downtime, sim.PrioAdmin, func() {
		if n.dead || n.epoch != epoch {
			return
		}
		rep.hasToken = true
		rep.tokenPos = n.tourPosOf(rep.ID)
		rep.granted = false
		if !n.params.DisableRecovery {
			for _, st := range n.tickOrder {
				if st.active && st != rep {
					st.armLossTimer(n.kernel.Now())
				}
			}
		}
		n.Metrics.HealLatency.Add(float64(n.kernel.Now() - detectedAt))
		n.Metrics.RecoveryEvents = append(n.Metrics.RecoveryEvents, core.RecoveryEvent{
			Kind: "reform", Failed: reporter, DetectedAt: detectedAt, HealedAt: n.kernel.Now(),
		})
	})
}

// onTreeLost reacts to a TREE_LOST broadcast.
func (n *Network) onTreeLost(f TreeLostFrame) {
	if f.Epoch != n.epoch || n.dead {
		return
	}
	n.rebuild(f.Reporter, n.kernel.Now())
}

func (n *Network) die(reason string) {
	n.dead = true
	n.Metrics.Dead = true
	n.Metrics.DeathReason = reason
	for _, st := range n.tickOrder {
		st.lossTimer.Cancel()
		st.claimDeadline.Cancel()
	}
}
