package core

import (
	"strings"
	"testing"

	"github.com/rtnet/wrtring/internal/radio"
	"github.com/rtnet/wrtring/internal/sim"
	"github.com/rtnet/wrtring/internal/topology"
)

func TestNewRejectsBadConfigs(t *testing.T) {
	kern := sim.NewKernel()
	rng := sim.NewRNG(1)
	med := radio.NewMedium(kern, rng.Split())
	pos := topology.Circle(4, 50)
	r := topology.ChordLen(4, 50) * 1.5
	var nodes []radio.NodeID
	for i := 0; i < 4; i++ {
		nodes = append(nodes, med.AddNode(pos[i], r, nil))
	}
	mk := func(mut func(m []Member)) error {
		members := make([]Member, 4)
		for i := range members {
			members[i] = Member{ID: StationID(i), Node: nodes[i],
				Code: radio.Code(i + 1), Quota: Quota{L: 1, K1: 1}}
		}
		mut(members)
		_, err := New(kern, med, rng, Params{}, members)
		return err
	}
	if err := mk(func(m []Member) {}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if mk(func(m []Member) { m[1].ID = 0 }) == nil {
		t.Fatal("duplicate ID accepted")
	}
	if mk(func(m []Member) { m[2].Code = radio.Broadcast }) == nil {
		t.Fatal("broadcast code accepted")
	}
	if mk(func(m []Member) { m[0].Quota = Quota{} }) == nil {
		t.Fatal("zero quota accepted")
	}
	// Too few stations.
	members := []Member{{ID: 0, Node: nodes[0], Code: 1, Quota: Quota{L: 1}},
		{ID: 1, Node: nodes[1], Code: 2, Quota: Quota{L: 1}}}
	if _, err := New(kern, med, rng, Params{}, members); err == nil {
		t.Fatal("2-station ring accepted")
	}
}

func TestNewRejectsUnconnectedNeighbours(t *testing.T) {
	kern := sim.NewKernel()
	rng := sim.NewRNG(2)
	med := radio.NewMedium(kern, rng.Split())
	// Station 2 is too far from 1 and 3.
	coords := []radio.Position{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 500, Y: 0}, {X: 20, Y: 10}}
	members := make([]Member, 4)
	for i, p := range coords {
		node := med.AddNode(p, 30, nil)
		members[i] = Member{ID: StationID(i), Node: node, Code: radio.Code(i + 1), Quota: Quota{L: 1}}
	}
	if _, err := New(kern, med, rng, Params{}, members); err == nil {
		t.Fatal("radio-disconnected ring accepted")
	}
}

func TestParamsValidation(t *testing.T) {
	p := Params{Quotas: AppendUniformQuotas(nil, 4, 1, 1), EnableRAP: true, TEar: 4, TUpdate: 1}
	if p.Validate(4) == nil {
		t.Fatal("too-short TEar accepted")
	}
	p.TEar, p.TUpdate = 12, 0
	if p.Validate(4) == nil {
		t.Fatal("zero TUpdate accepted")
	}
	p.TUpdate = 4
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	p.SRound = -1
	if p.Validate(4) == nil {
		t.Fatal("negative SRound accepted")
	}
	if (Quota{L: -1}).Validate() == nil {
		t.Fatal("negative quota accepted")
	}
	if (Quota{L: 1, K1: 2, K2: 3}).K() != 5 {
		t.Fatal("K() wrong")
	}
}

func TestDisableRecoveryAblation(t *testing.T) {
	kern, _, ring := buildRing(t, 8, 2, 2, Params{DisableRecovery: true}, 60)
	kern.Run(200)
	ring.LoseSATOnce()
	kern.Run(200 + sim.Time(10*ring.SatTime()))
	// Nothing detects, nothing recovers: the ring is silently dead.
	if ring.Metrics.Detections != 0 || ring.Metrics.Splices != 0 {
		t.Fatalf("recovery ran despite ablation: %+v", ring.Metrics)
	}
	before := ring.Metrics.Rounds
	kern.Run(kern.Now() + 1000)
	if ring.Metrics.Rounds != before {
		t.Fatal("SAT still rotating after uncompensated loss")
	}
}

func TestHeterogeneousQuotasBound(t *testing.T) {
	kern := sim.NewKernel()
	rng := sim.NewRNG(61)
	med := radio.NewMedium(kern, rng.Split())
	n := 6
	pos := topology.Circle(n, 50)
	r := topology.ChordLen(n, 50) * 2.5
	quotas := []Quota{{L: 4, K1: 2}, {L: 1, K2: 1}, {L: 2, K1: 1, K2: 1},
		{L: 0, K1: 3}, {L: 5}, {L: 1, K1: 1}}
	members := make([]Member, n)
	for i := 0; i < n; i++ {
		node := med.AddNode(pos[i], r, nil)
		members[i] = Member{ID: StationID(i), Node: node, Code: radio.Code(i + 1), Quota: quotas[i]}
	}
	ring, err := New(kern, med, rng.Split(), Params{}, members)
	if err != nil {
		t.Fatal(err)
	}
	ring.Start()
	// Theorem 1 with per-station quotas: S + 0 + 2*Σ(l+k) = 6 + 2*22 = 50.
	if ring.SatTime() != 50 {
		t.Fatalf("SAT_TIME = %d, want 50", ring.SatTime())
	}
	for i := 0; i < n; i++ {
		st := ring.Station(StationID(i))
		for p := 0; p < 300; p++ {
			if quotas[i].L > 0 {
				st.Enqueue(Packet{Dst: StationID((i + 3) % n), Class: Premium})
			}
			if quotas[i].K() > 0 {
				st.Enqueue(Packet{Dst: StationID((i + 2) % n), Class: BestEffort})
			}
		}
	}
	kern.Run(6000)
	if got := ring.Metrics.MaxRotation; got >= 50 {
		t.Fatalf("heterogeneous bound violated: %d >= 50", got)
	}
	// Station 4 (l=5, k=0) must never send best-effort; station 3 (l=0)
	// must never send premium.
	if ring.Station(4).Metrics.Sent[BestEffort] != 0 {
		t.Fatal("station with k=0 sent best-effort")
	}
	if ring.Station(3).Metrics.Sent[Premium] != 0 {
		t.Fatal("station with l=0 sent premium")
	}
}

func TestSetQuotaRecomputesBound(t *testing.T) {
	_, _, ring := buildRing(t, 6, 2, 2, Params{}, 62)
	before := ring.SatTime()
	if err := ring.SetQuota(2, Quota{L: 6, K1: 1, K2: 1}); err != nil {
		t.Fatal(err)
	}
	// Δ(l+k) = (6+2) - (2+2) = +4 → bound grows by 8.
	if ring.SatTime() != before+8 {
		t.Fatalf("bound %d, want %d", ring.SatTime(), before+8)
	}
	if ring.SetQuota(99, Quota{L: 1}) == nil {
		t.Fatal("unknown station accepted")
	}
	if ring.SetQuota(2, Quota{L: -1}) == nil {
		t.Fatal("invalid quota accepted")
	}
}

func TestDoubleOrphanScrubbedByTTL(t *testing.T) {
	// A slot whose source AND destination have both left the ring can be
	// freed by neither; the hop-TTL scrubber must reclaim it. Staging that
	// end-to-end needs an exiled source with an in-flight packet — a rare
	// alignment — so this white-box test injects the aged slot directly.
	n := 8
	kern, _, ring := buildRing(t, n, 2, 2, Params{}, 63)
	kern.Run(100)
	st := ring.Station(2)
	st.incoming = &RingFrame{Slot: SlotPayload{
		Busy: true,
		Pkt:  Packet{Src: 98, Dst: 99, Class: Premium}, // neither exists
		Hops: int32(4*ring.N() + 17),
	}}
	kern.Run(kern.Now() + 2)
	if st.Metrics.SlotsScrubbed != 1 {
		t.Fatalf("scrubbed = %d", st.Metrics.SlotsScrubbed)
	}
	// The freed slot is immediately reusable.
	del := ring.Metrics.Delivered[Premium]
	ring.Station(2).Enqueue(Packet{Dst: 6, Class: Premium})
	kern.Run(kern.Now() + 100)
	if ring.Metrics.Delivered[Premium] != del+1 {
		t.Fatal("traffic blocked after scrub")
	}
}

func TestOrphanToDeadStationDiesAtTheGap(t *testing.T) {
	// Companion to the TTL test: a packet addressed *through* a dead
	// station is simply lost at the dead hop before any splice completes —
	// the downstream neighbour regenerates an empty slot.
	n := 8
	kern, _, ring := buildRing(t, n, 2, 2, Params{}, 69)
	kern.Run(100)
	ring.Station(1).Enqueue(Packet{Dst: 5, Class: Premium})
	kern.Run(102)
	ring.KillStation(5)
	kern.Run(kern.Now() + sim.Time(4*ring.SatTime()))
	if ring.Dead() {
		t.Fatalf("ring died: %s", ring.Metrics.DeathReason)
	}
	if ring.Metrics.Delivered[Premium] != 0 {
		t.Fatal("packet to dead station delivered?")
	}
	if ring.Station(6).Metrics.SlotsRegenerated == 0 {
		t.Fatal("dead hop never forced a regeneration downstream")
	}
}

func TestUnusedKExpires(t *testing.T) {
	// A station idle for many rounds cannot bank authorisations: after the
	// backlog arrives it still sends at most k best-effort per round.
	n := 6
	kern, _, ring := buildRing(t, n, 1, 2, Params{}, 64)
	kern.Run(5000) // ~800 idle rounds: nothing banked
	st := ring.Station(0)
	for p := 0; p < 100; p++ {
		st.Enqueue(Packet{Dst: 3, Class: BestEffort})
	}
	r0 := ring.Metrics.Rounds
	kern.Run(kern.Now() + 300)
	sent := st.Metrics.Sent[BestEffort]
	rounds := ring.Metrics.Rounds - r0
	if sent > (rounds+1)*2 {
		t.Fatalf("sent %d best-effort in %d rounds with k=2: authorisations banked", sent, rounds)
	}
}

func TestJoinerMaxAttempts(t *testing.T) {
	n := 6
	params := rapParams()
	params.AdmitMaxStations = n // always rejected
	kern, med, ring := buildRing(t, n, 2, 2, params, 65)
	p0 := med.PositionOf(ring.Station(0).Node)
	p1 := med.PositionOf(ring.Station(1).Node)
	node := med.AddNode(radio.Position{X: (p0.X + p1.X) / 2, Y: (p0.Y + p1.Y) / 2},
		med.RangeOf(ring.Station(0).Node), nil)
	j := ring.NewJoiner(100, node, radio.Code(100), Quota{L: 1})
	j.MaxAttempts = 2
	kern.Run(sim.Time(10 * int64(n) * ring.SatTime()))
	if j.State() != "given-up" {
		t.Fatalf("state %s after exceeding MaxAttempts", j.State())
	}
}

func TestMetricsSummaryRenders(t *testing.T) {
	kern, _, ring := buildRing(t, 6, 2, 2, Params{}, 66)
	ring.Station(0).Enqueue(Packet{Dst: 3, Class: Premium})
	kern.Run(500)
	s := ring.Metrics.Summary(500)
	for _, want := range []string{"rounds=", "premium", "throughput=", "recovery:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRingAccessors(t *testing.T) {
	kern, med, ring := buildRing(t, 5, 2, 2, Params{}, 67)
	if ring.Kernel() != kern || ring.Medium() != med {
		t.Fatal("accessors broken")
	}
	if len(ring.Order()) != 5 || ring.N() != 5 {
		t.Fatal("order/N wrong")
	}
	if ring.Station(0).Succ() != 1 || ring.Station(0).Pred() != 4 {
		t.Fatalf("neighbours: succ=%d pred=%d", ring.Station(0).Succ(), ring.Station(0).Pred())
	}
	p := ring.RingParams()
	if p.N != 5 || p.S != 5 || p.SumLK != 20 {
		t.Fatalf("ring params %+v", p)
	}
	if c := Premium; c.String() != "premium" || !c.RealTime() {
		t.Fatal("class helpers broken")
	}
	if BestEffort.RealTime() {
		t.Fatal("best-effort marked real-time")
	}
}

func TestStartIsIdempotent(t *testing.T) {
	kern, _, ring := buildRing(t, 5, 2, 2, Params{}, 68)
	ring.Start()
	ring.Start()
	kern.Run(100)
	if ring.Metrics.DuplicateSAT != 0 {
		t.Fatalf("double Start created duplicate SATs: %d", ring.Metrics.DuplicateSAT)
	}
}
