package wrtring

import (
	"fmt"

	"github.com/rtnet/wrtring/internal/core"
	"github.com/rtnet/wrtring/internal/fault"
	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
)

// This file wires the deterministic fault-injection layer (internal/fault)
// into the Scenario API: a declarative loss channel, a crash/restart
// schedule, and Poisson join/leave churn — all drawn from RNGs split off the
// scenario seed, so a faulted run stays byte-identical at any worker count.

// LossSpec declares the wireless loss channel as a Gilbert–Elliott chain.
// The common cases need only Mean (uniform loss) or Mean plus BurstLen
// (bursty loss); the explicit chain parameters override both when any is
// non-zero.
type LossSpec struct {
	// Mean is the long-run per-frame loss rate.
	Mean float64
	// BurstLen is the mean loss-burst length in slots; 0 means memoryless
	// (uniform) loss at rate Mean.
	BurstLen int64
	// PerCode keys one loss chain per CDMA code instead of one per directed
	// link (narrowband interference tracking a channel, not a path).
	PerCode bool

	// Explicit Gilbert–Elliott parameters (all per-slot / per-frame
	// probabilities); when any is set they are used verbatim.
	PGoodBad, PBadGood, LossGood, LossBad float64
}

func (l LossSpec) model() fault.GilbertElliott {
	var g fault.GilbertElliott
	switch {
	case l.PGoodBad != 0 || l.PBadGood != 0 || l.LossGood != 0 || l.LossBad != 0:
		g = fault.GilbertElliott{
			PGoodBad: l.PGoodBad, PBadGood: l.PBadGood,
			LossGood: l.LossGood, LossBad: l.LossBad,
		}
	case l.BurstLen > 0:
		g = fault.Burst(l.Mean, l.BurstLen)
	default:
		g = fault.Uniform(l.Mean)
	}
	g.PerCode = l.PerCode
	return g
}

// CrashOp schedules one silent station crash: Station freezes at slot At
// and, when For > 0, restarts For slots later. A restarted station cannot
// resume its old ring position (the survivors spliced around it); with RAP
// enabled it re-enters as a newcomer reclaiming its identity and quota.
type CrashOp struct {
	At      int64
	Station int
	For     int64
}

// FaultSpec is a scenario's complete fault-injection plan.
type FaultSpec struct {
	// Loss, when non-nil, installs the Gilbert–Elliott loss channel between
	// the medium and every receiver.
	Loss *LossSpec
	// Crashes schedules crash/freeze/restart events (WRT-Ring only).
	Crashes []CrashOp
	// JoinEvery / LeaveEvery enable Poisson churn: one newcomer joins on
	// average every JoinEvery slots, one random member leaves gracefully
	// every LeaveEvery slots (0 disables a process; WRT-Ring only, joins
	// require EnableRAP).
	JoinEvery  float64
	LeaveEvery float64
	// ChurnStart / ChurnStop bound the churn processes (Stop 0 = forever).
	ChurnStart, ChurnStop int64
	// MinMembers suppresses churn leaves at or below this ring size
	// (default 4, so the ring never leaves quorum voluntarily).
	MinMembers int
	// ChurnQuota is the quota churn newcomers request (default L=1, K1=1).
	ChurnQuota Quota
}

func (f *FaultSpec) scripted() bool {
	return f != nil && (len(f.Crashes) > 0 || f.JoinEvery > 0 || f.LeaveEvery > 0)
}

// faultTarget adapts the network's scripted-event methods to the fault
// package's script interface.
type faultTarget struct {
	n      *Network
	rng    *sim.RNG
	quota  Quota
	nextID core.StationID
}

func (t *faultTarget) Kill(station int) { t.n.kill(core.StationID(station)) }

func (t *faultTarget) Restart(station int) {
	t.n.Ring.RestartStation(core.StationID(station))
}

func (t *faultTarget) Leave(station int) {
	if station >= 0 {
		t.n.leave(core.StationID(station))
		return
	}
	// Churn leave: a uniformly random current member departs.
	order := t.n.Ring.Order()
	if len(order) == 0 {
		return
	}
	t.n.leave(order[t.rng.Intn(len(order))])
}

func (t *faultTarget) Join() {
	order := t.n.Ring.Order()
	if len(order) == 0 {
		return
	}
	// The newcomer lands between a random member and its successor.
	i := t.rng.Intn(len(order))
	if t.n.join(order[i], order[(i+1)%len(order)], t.nextID, radio.Code(2000+int(t.nextID)), t.quota) {
		t.nextID++
	}
}

func (t *faultTarget) Members() int { return t.n.Ring.N() }

// applyFault installs a scenario's fault plan: the loss injector on the
// medium and the crash/churn script on the kernel.
func (n *Network) applyFault(fs *FaultSpec) error {
	if fs == nil {
		return nil
	}
	if fs.Loss != nil {
		model := fs.Loss.model()
		if err := model.Validate(); err != nil {
			return err
		}
		if model.Enabled() {
			inj := fault.NewInjector(n.Kernel, n.RNG.Split(), model)
			inj.Bind(n.Medium)
			n.Injector = inj
		}
	}
	if !fs.scripted() {
		return nil
	}
	if n.Ring == nil {
		return fmt.Errorf("wrtring: fault crash/churn scripts are only supported on WRT-Ring")
	}
	if fs.JoinEvery > 0 && !n.Scenario.EnableRAP {
		return fmt.Errorf("wrtring: fault churn joins require EnableRAP")
	}
	for i, c := range fs.Crashes {
		if c.Station < 0 || c.Station >= n.Scenario.N {
			return fmt.Errorf("wrtring: fault crash %d targets station %d (N=%d)", i, c.Station, n.Scenario.N)
		}
	}
	tgt := &faultTarget{n: n, rng: n.RNG.Split(), quota: fs.ChurnQuota, nextID: 2000}
	script := fault.Script{
		Churn: fault.Churn{
			JoinEvery: fs.JoinEvery, LeaveEvery: fs.LeaveEvery,
			Start: fs.ChurnStart, Stop: fs.ChurnStop, MinMembers: fs.MinMembers,
		},
	}
	for _, c := range fs.Crashes {
		script.Crashes = append(script.Crashes, fault.Crash{At: c.At, Station: c.Station, For: c.For})
	}
	return fault.Apply(n.Kernel, tgt.rng, tgt, script)
}
