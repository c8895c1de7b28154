// Package topology builds and maintains the network layouts the protocols
// run over: station placements, the unit-disk connectivity graph, the
// virtual ring WRT-Ring requires, the spanning tree TPT requires, and a
// low-mobility waypoint model for the indoor scenarios the paper targets
// (meeting rooms, conference sites, airport lounges).
//
// The paper states that "the implementation of the virtual ring goes beyond
// the design of a MAC protocol, since routing protocols can be used for this
// purpose"; this package plays the role of that routing substrate.
package topology

import (
	"errors"
	"fmt"
	"math"

	"github.com/rtnet/wrtring/internal/codes"
	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
)

// Circle places n stations evenly on a circle of the given radius centred at
// (radius, radius). With txRange >= the chord between neighbours this always
// yields a valid ring; it is the canonical "meeting room around a table"
// layout.
func Circle(n int, radius float64) []radio.Position {
	return AppendCircle(nil, n, radius)
}

// AppendCircle appends Circle(n, radius) onto dst, reusing its capacity
// (the arena build path's variant).
func AppendCircle(dst []radio.Position, n int, radius float64) []radio.Position {
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		dst = append(dst, radio.Position{X: radius + radius*math.Cos(th), Y: radius + radius*math.Sin(th)})
	}
	return dst
}

// ChordLen returns the distance between adjacent stations of Circle(n, r) —
// handy for choosing a txRange that makes exactly the ring neighbours (or a
// few more) reachable.
func ChordLen(n int, radius float64) float64 {
	return 2 * radius * math.Sin(math.Pi/float64(n))
}

// RandomArea scatters n stations uniformly over a w×h rectangle.
func RandomArea(n int, w, h float64, rng *sim.RNG) []radio.Position {
	out := make([]radio.Position, n)
	for i := range out {
		out[i] = radio.Position{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return out
}

// Grid places n stations on a near-square grid with the given spacing.
func Grid(n int, spacing float64) []radio.Position {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	out := make([]radio.Position, n)
	for i := range out {
		out[i] = radio.Position{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
	}
	return out
}

// Clustered places n stations in k Gaussian-ish clusters inside a w×h area —
// the "groups around tables" indoor layout, which produces hidden terminals
// between clusters.
func Clustered(n, k int, w, h, spread float64, rng *sim.RNG) []radio.Position {
	if k < 1 {
		k = 1
	}
	centers := RandomArea(k, w, h, rng)
	out := make([]radio.Position, n)
	for i := range out {
		c := centers[i%k]
		// Sum of three uniforms approximates a Gaussian well enough for
		// placement purposes and keeps the kernel RNG the only source.
		dx := (rng.Float64() + rng.Float64() + rng.Float64() - 1.5) / 1.5 * spread
		dy := (rng.Float64() + rng.Float64() + rng.Float64() - 1.5) / 1.5 * spread
		out[i] = radio.Position{X: clamp(c.X+dx, 0, w), Y: clamp(c.Y+dy, 0, h)}
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BuildGraph derives the mutual-connectivity graph of the placement under a
// common transmission range. Adjacency lists come out sorted ascending and
// are carved from one flat backing array: rebuild-heavy grids call this per
// scenario, and per-node append growth dominated its allocation profile.
func BuildGraph(pos []radio.Position, txRange float64) codes.Graph {
	n := len(pos)
	g := codes.NewGraph(n)
	deg := make([]int, n)
	adj := make([]uint64, (n*n+63)/64)
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[i].Dist(pos[j]) <= txRange {
				b := i*n + j
				adj[b/64] |= 1 << (b % 64)
				deg[i]++
				deg[j]++
				total += 2
			}
		}
	}
	flat := make([]int, total)
	off := 0
	for i := 0; i < n; i++ {
		g[i] = flat[off : off : off+deg[i]]
		off += deg[i]
	}
	// Second pass replays the pair order of the first, so each list fills
	// exactly to its capacity in the same ascending order AddEdge produced.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b := i*n + j
			if adj[b/64]&(1<<(b%64)) != 0 {
				g[i] = append(g[i], j)
				g[j] = append(g[j], i)
			}
		}
	}
	return g
}

// ErrNoRing is returned when no valid virtual ring exists under the current
// connectivity (some station cannot reach two others, or the tour repair
// failed).
var ErrNoRing = errors.New("topology: no valid virtual ring found")

// RingOrder computes a cyclic ordering of all stations such that every
// consecutive pair is connected in g. It runs a nearest-neighbour tour over
// the positions and then repairs invalid hops with 2-opt moves restricted to
// the connectivity graph. The paper's scenarios are dense indoor networks,
// for which this almost always succeeds; ErrNoRing signals that the caller
// should increase density or range.
func RingOrder(pos []radio.Position, g codes.Graph) ([]int, error) {
	n := len(pos)
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs at least 3 stations, have %d", n)
	}
	for i := 0; i < n; i++ {
		if len(g[i]) < 2 {
			return nil, fmt.Errorf("%w: station %d has %d neighbours (<2)", ErrNoRing, i, len(g[i]))
		}
	}
	// Nearest-neighbour tour seeded at station 0.
	tour := make([]int, 0, n)
	used := make([]bool, n)
	cur := 0
	tour = append(tour, 0)
	used[0] = true
	for len(tour) < n {
		best, bestD := -1, math.MaxFloat64
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			d := pos[cur].Dist(pos[j])
			// Prefer graph neighbours strongly; fall back on geometric
			// proximity when the frontier is disconnected.
			if !g.HasEdge(cur, j) {
				d += 1e6
			}
			if d < bestD {
				best, bestD = j, d
			}
		}
		tour = append(tour, best)
		used[best] = true
		cur = best
	}
	// 2-opt repair: while some consecutive pair is not connected, try to
	// reverse a segment that fixes it without breaking others.
	for pass := 0; pass < 4*n; pass++ {
		bad := -1
		for i := 0; i < n; i++ {
			if !g.HasEdge(tour[i], tour[(i+1)%n]) {
				bad = i
				break
			}
		}
		if bad < 0 {
			return tour, nil
		}
		improved := false
		for j := 0; j < n; j++ {
			if j == bad {
				continue
			}
			cand := twoOptSwap(tour, bad, j)
			if violations(cand, g) < violations(tour, g) {
				tour = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	if violations(tour, g) == 0 {
		return tour, nil
	}
	return nil, ErrNoRing
}

// violations counts consecutive tour pairs not connected in g.
func violations(tour []int, g codes.Graph) int {
	n := len(tour)
	v := 0
	for i := 0; i < n; i++ {
		if !g.HasEdge(tour[i], tour[(i+1)%n]) {
			v++
		}
	}
	return v
}

// twoOptSwap reverses the tour segment between positions i+1 and j
// (classic 2-opt move), returning a fresh slice.
func twoOptSwap(tour []int, i, j int) []int {
	n := len(tour)
	if i > j {
		i, j = j, i
	}
	out := make([]int, n)
	copy(out, tour[:i+1])
	for k := i + 1; k <= j; k++ {
		out[k] = tour[j-(k-i-1)]
	}
	copy(out[j+1:], tour[j+1:])
	return out
}

// Tree is a rooted spanning tree (the TPT topology).
type Tree struct {
	Root     int
	Parent   []int   // Parent[root] == -1
	Children [][]int // sorted child lists for deterministic traversal
}

// BFSTree builds a breadth-first spanning tree of g rooted at root. It
// returns an error if g is disconnected (TPT cannot cover such a network).
func BFSTree(g codes.Graph, root int) (*Tree, error) {
	var b TreeBuilder
	return b.Build(g, root)
}

// TreeBuilder is BFSTree with recycled working storage: rebuild-heavy arena
// grids recompute the spanning tree once per scenario, and the per-call
// parent/queue/children allocations dominated the build profile. The zero
// value is ready to use. The returned Tree aliases the builder's arrays and
// stays valid only until the next Build.
type TreeBuilder struct {
	tree Tree
	// queue and cdeg are BFS working storage; flat is the single backing
	// array the child lists are carved from.
	queue []int
	cdeg  []int
	flat  []int
}

// growInts returns s resized to n, reusing its backing array when wide
// enough. Contents are unspecified; callers overwrite every element.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Build computes the BFS spanning tree of g rooted at root into the
// builder's recycled arrays (see BFSTree for semantics).
func (b *TreeBuilder) Build(g codes.Graph, root int) (*Tree, error) {
	n := len(g)
	t := &b.tree
	t.Root = root
	t.Parent = growInts(t.Parent, n)
	parent := t.Parent
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	if cap(b.queue) < n {
		b.queue = make([]int, 0, n)
	}
	queue := b.queue[:0]
	queue = append(queue, root)
	visited := 1
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g[u] {
			if parent[v] == -2 {
				parent[v] = u
				visited++
				queue = append(queue, v)
			}
		}
	}
	b.queue = queue[:0]
	if visited != n {
		return nil, fmt.Errorf("topology: graph disconnected, BFS reached %d of %d stations", visited, n)
	}
	// Child lists are carved from one flat array (ascending order is
	// preserved: v ascends in both passes), mirroring BuildGraph.
	b.cdeg = growInts(b.cdeg, n)
	cdeg := b.cdeg
	for i := range cdeg {
		cdeg[i] = 0
	}
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			cdeg[parent[v]]++
		}
	}
	if cap(t.Children) < n {
		t.Children = make([][]int, n)
	}
	t.Children = t.Children[:n]
	b.flat = growInts(b.flat, n-1)
	off := 0
	for u := 0; u < n; u++ {
		t.Children[u] = b.flat[off : off : off+cdeg[u]]
		off += cdeg[u]
	}
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			t.Children[parent[v]] = append(t.Children[parent[v]], v)
		}
	}
	return t, nil
}

// EulerTour returns the depth-first token path through the tree: the
// sequence of stations the token visits, starting and ending at the root.
// Every tree edge appears exactly twice, so the path has 2·(N−1) hops —
// the quantity the paper compares against the ring's N hops (§3.2.1).
func (t *Tree) EulerTour() []int {
	return t.AppendEulerTour(make([]int, 0, 2*len(t.Parent)-1))
}

// AppendEulerTour appends the tour onto dst, reusing its capacity (the
// arena build path's variant of EulerTour).
func (t *Tree) AppendEulerTour(dst []int) []int {
	return t.walkTour(t.Root, dst)
}

func (t *Tree) walkTour(u int, path []int) []int {
	path = append(path, u)
	for _, c := range t.Children[u] {
		path = t.walkTour(c, path)
		path = append(path, u)
	}
	return path
}

// Depth returns the depth of station v (root has depth 0).
func (t *Tree) Depth(v int) int {
	d := 0
	for t.Parent[v] >= 0 {
		v = t.Parent[v]
		d++
	}
	return d
}

// Waypoint is a low-mobility random-waypoint model: each station ambles
// toward a random target inside the area at a small speed, pausing between
// legs — matching the paper's "low mobility and limited movement space"
// assumption.
type Waypoint struct {
	W, H     float64
	Speed    float64 // distance units per slot
	PauseMin int64   // slots
	PauseMax int64
	rng      *sim.RNG
	targets  []radio.Position
	pauses   []int64
}

// NewWaypoint creates a mobility model over a w×h area.
func NewWaypoint(w, h, speed float64, pauseMin, pauseMax int64, rng *sim.RNG) *Waypoint {
	return &Waypoint{W: w, H: h, Speed: speed, PauseMin: pauseMin, PauseMax: pauseMax, rng: rng}
}

// Step advances every position by dt slots of movement and returns the
// updated slice (in place).
func (m *Waypoint) Step(pos []radio.Position, dt int64) []radio.Position {
	if len(m.targets) != len(pos) {
		m.targets = make([]radio.Position, len(pos))
		m.pauses = make([]int64, len(pos))
		for i := range pos {
			m.targets[i] = pos[i]
		}
	}
	for i := range pos {
		remaining := float64(dt) * m.Speed
		for remaining > 0 {
			if m.pauses[i] > 0 {
				// Consume pause time at one slot of pause per slot of dt.
				pauseSlots := int64(remaining / m.Speed)
				if pauseSlots == 0 {
					pauseSlots = 1
				}
				if pauseSlots > m.pauses[i] {
					pauseSlots = m.pauses[i]
				}
				m.pauses[i] -= pauseSlots
				remaining -= float64(pauseSlots) * m.Speed
				continue
			}
			d := pos[i].Dist(m.targets[i])
			if d <= remaining {
				pos[i] = m.targets[i]
				remaining -= d
				m.targets[i] = radio.Position{X: m.rng.Float64() * m.W, Y: m.rng.Float64() * m.H}
				span := m.PauseMax - m.PauseMin
				if span > 0 {
					m.pauses[i] = m.PauseMin + int64(m.rng.Intn(int(span)))
				} else {
					m.pauses[i] = m.PauseMin
				}
			} else if d > 0 {
				f := remaining / d
				pos[i].X += (m.targets[i].X - pos[i].X) * f
				pos[i].Y += (m.targets[i].Y - pos[i].Y) * f
				remaining = 0
			} else {
				remaining = 0
			}
		}
	}
	return pos
}
