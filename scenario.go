package wrtring

import (
	"fmt"

	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
	"github.com/rtnet/wrtring/internal/topology"
	"github.com/rtnet/wrtring/internal/trace"
)

// This file extends the Scenario API with the dynamic-environment features
// of §2.4/§2.5: scripted churn (joins, leaves, silent failures, signal
// losses), the low-mobility waypoint model, and the protocol event journal.

// ChurnKind enumerates scripted topology events.
type ChurnKind int

// Churn operations.
const (
	// Kill powers Station off silently (§2.5: SAT loss, timers, splice).
	Kill ChurnKind = iota
	// Leave makes Station depart voluntarily (§2.4.2).
	Leave
	// Join introduces a new station placed between ring positions Station
	// and Station+1, which enters through the RAP (§2.4.1). Requires
	// EnableRAP.
	Join
	// LoseSignal destroys the next control-signal transmission (§2.5).
	LoseSignal
)

func (k ChurnKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Leave:
		return "leave"
	case Join:
		return "join"
	case LoseSignal:
		return "lose-signal"
	default:
		return fmt.Sprintf("churn(%d)", int(k))
	}
}

// ChurnOp is one scripted topology event.
type ChurnOp struct {
	At      int64
	Kind    ChurnKind
	Station int
	// Quota applies to Join ops (zero value gets L=1, K1=1).
	Quota Quota
}

// Mobility configures the low-mobility random-waypoint model of the paper's
// indoor scenarios. Stations amble toward random targets at Speed distance
// units per slot, pausing between legs; positions update every StepEvery
// slots.
type Mobility struct {
	Speed              float64
	PauseMin, PauseMax int64
	StepEvery          int64
}

// Journal returns the protocol event journal (nil unless Scenario.Trace was
// set).
func (n *Network) Journal() *trace.Recorder { return n.journal }

// Joiners returns the joiner state machines created by scripted Join ops.
func (n *Network) Joiners() []*core.Joiner { return n.joiners }

// applyChurn installs the scripted operations onto the kernel.
func (n *Network) applyChurn(ops []ChurnOp) error {
	for i, op := range ops {
		op := op
		if op.Kind != LoseSignal && (op.Station < 0 || op.Station >= n.Scenario.N) {
			return fmt.Errorf("wrtring: churn op %d targets station %d (N=%d)", i, op.Station, n.Scenario.N)
		}
		if op.Kind == Join {
			if n.Ring == nil {
				return fmt.Errorf("wrtring: scripted joins are only supported on WRT-Ring")
			}
			if !n.Scenario.EnableRAP {
				return fmt.Errorf("wrtring: churn op %d is a Join but EnableRAP is off", i)
			}
		}
		id := core.StationID(1000 + i)
		n.Kernel.At(sim.Time(op.At), sim.PrioAdmin, func() {
			s := core.StationID(op.Station)
			switch op.Kind {
			case Kill:
				n.kill(s)
			case Leave:
				n.leave(s)
			case LoseSignal:
				n.loseSignal()
			case Join:
				next := core.StationID((op.Station + 1) % n.Scenario.N)
				n.join(s, next, id, radio.Code(1000+int(id)), op.Quota)
			}
		})
	}
	return nil
}

// The scripted-event adapter. Scenario.Churn ops and the FaultSpec
// crash/churn script both act on the protocol through these methods, so
// each event has one body per protocol.

// kill powers station id off silently (§2.5).
func (n *Network) kill(id core.StationID) {
	if n.Ring != nil {
		n.Ring.KillStation(id)
	} else {
		n.Tree.KillStation(id)
	}
}

// leave makes station id depart gracefully (§2.4.2) if it is still active.
// TPT has no graceful leave, so there the station is killed.
func (n *Network) leave(id core.StationID) {
	if n.Ring == nil {
		n.kill(id)
		return
	}
	if st := n.Ring.Station(id); st != nil && st.Active() {
		st.Leave()
	}
}

// loseSignal destroys the next control-signal transmission: the SAT on
// WRT-Ring, the token on TPT (§2.5).
func (n *Network) loseSignal() {
	if n.Ring != nil {
		n.Ring.LoseSATOnce()
	} else {
		n.Tree.LoseTokenOnce()
	}
}

// join places newcomer id midway between ring members a and b, like a
// device carried into the room between them, and starts its RAP entry
// (§2.4.1) with quota q (zero gets L=1, K1=1). It places nothing and
// reports false unless both members are live. WRT-Ring only.
func (n *Network) join(a, b, id core.StationID, code radio.Code, q Quota) bool {
	sa, sb := n.Ring.Station(a), n.Ring.Station(b)
	if sa == nil || sb == nil || !sa.Active() || !sb.Active() {
		return false
	}
	pa, pb := n.Medium.PositionOf(sa.Node), n.Medium.PositionOf(sb.Node)
	mid := radio.Position{X: (pa.X + pb.X) / 2, Y: (pa.Y + pb.Y) / 2}
	node := n.Medium.AddNode(mid, n.Medium.RangeOf(sa.Node), nil)
	if q.L == 0 && q.K() == 0 {
		q = Quota{L: 1, K1: 1}
	}
	n.joiners = append(n.joiners, n.Ring.NewJoiner(id, node, code, q))
	return true
}

// applyMobility starts the waypoint stepper.
func (n *Network) applyMobility(m *Mobility) {
	if m.StepEvery <= 0 {
		m.StepEvery = 100
	}
	// The waypoint area spans the bounding box of the placement, padded a
	// little so edge stations can still wander.
	var w, h float64
	for _, p := range n.Positions {
		if p.X > w {
			w = p.X
		}
		if p.Y > h {
			h = p.Y
		}
	}
	wp := topology.NewWaypoint(w*1.1, h*1.1, m.Speed, m.PauseMin, m.PauseMax, n.RNG.Split())
	pos := append([]radio.Position(nil), n.Positions...)
	n.Kernel.EverySlot(0, sim.PrioStats, func(t sim.Time) bool {
		if t == 0 || int64(t)%m.StepEvery != 0 {
			return true
		}
		pos = wp.Step(pos, m.StepEvery)
		for i := 0; i < n.Scenario.N; i++ {
			var node radio.NodeID
			if n.Ring != nil {
				st := n.Ring.Station(core.StationID(i))
				if st == nil {
					continue
				}
				node = st.Node
			} else {
				st := n.Tree.Station(core.StationID(i))
				if st == nil {
					continue
				}
				node = st.Node
			}
			n.Medium.SetPosition(node, pos[i])
		}
		return true
	})
}
