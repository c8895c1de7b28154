package core

import (
	"errors"
	"fmt"
)

// RemovalPolicy selects who frees a busy slot.
type RemovalPolicy int

// Removal policies.
const (
	// DestinationRemoval frees the slot at the destination, enabling the
	// spatial reuse that makes concurrent access pay off (default, matching
	// the RT-Ring/MetaRing heritage).
	DestinationRemoval RemovalPolicy = iota
	// SourceRemoval lets the slot travel the full ring and be freed by the
	// source; kept for ablation of the spatial-reuse contribution.
	SourceRemoval
)

func (p RemovalPolicy) String() string {
	if p == SourceRemoval {
		return "source"
	}
	return "destination"
}

// Quota is a station's per-SAT-rotation transmission allowance.
type Quota struct {
	// L is the guaranteed real-time quota (Premium).
	L int
	// K1 and K2 split the non-real-time quota k = K1 + K2 between Assured
	// and BestEffort (§2.3). Stations that do not differentiate simply put
	// everything in K1 or K2.
	K1, K2 int
}

// K returns the total non-real-time quota k.
func (q Quota) K() int { return q.K1 + q.K2 }

// Validate rejects negative or all-zero quotas.
func (q Quota) Validate() error {
	if q.L < 0 || q.K1 < 0 || q.K2 < 0 {
		return fmt.Errorf("core: negative quota %+v", q)
	}
	if q.L == 0 && q.K() == 0 {
		return errors.New("core: station with zero total quota can never transmit")
	}
	return nil
}

// Params configures a WRT-Ring network.
type Params struct {
	// Quotas per founding station (length = initial N).
	Quotas []Quota

	// TEar and TUpdate are the two phases of the Random Access Period;
	// T_rap = TEar + TUpdate (§2.4.1). TEar must be long enough for the
	// NEXT_FREE → JOIN_REQ → JOIN_ACK exchange (≥ 8 slots).
	TEar, TUpdate int64

	// SRound is the number of SAT rotations a station must wait after
	// acting as ingress before entering another RAP; the paper requires
	// SRound ≥ N. Zero means "use N".
	SRound int

	// SatTimeMargin is added to the Theorem-1 bound when arming SAT_TIMERs,
	// leaving room for the RAP of the round in progress. Zero keeps the
	// exact bound.
	SatTimeMargin int64

	// Removal selects the slot-freeing policy.
	Removal RemovalPolicy

	// EnableRAP turns the periodic Random Access Period machinery on. With
	// it off, T_rap = 0 and the bounds reduce to plain RT-Ring.
	EnableRAP bool

	// AutoRejoin makes a healthy station that was cut out of the ring by a
	// pure SAT loss (§2.5 splices around it) re-enter through the next
	// Random Access Period, reusing its identity, code and quota. Requires
	// EnableRAP.
	AutoRejoin bool

	// RedistributeQuota implements the §2.5 note that "the transmission
	// quota assigned to station i can be re-assigned to all the other
	// station": when a splice removes a member, its l and k quotas are
	// spread round-robin over the survivors, keeping Σ(l+k) — and hence
	// the SAT_TIME bound — unchanged.
	RedistributeQuota bool

	// AdmitMaxStations caps ring membership during joins (0 = unlimited).
	AdmitMaxStations int

	// AdmitMaxSumLK caps Σ(l_j + k_j) during joins (0 = unlimited); this is
	// the simple bandwidth-budget admission rule the gateway also uses.
	AdmitMaxSumLK int64

	// DisableRecovery turns SAT_TIMER/SAT_REC off (ablation; a lost SAT
	// then silences the ring forever).
	DisableRecovery bool

	// DisableSplice forces every detected SAT loss to a full ring
	// re-formation instead of trying the SAT_REC splice first (ablation:
	// makes WRT-Ring react like TPT's tree rebuild).
	DisableSplice bool

	// DisableInvariantChecks turns the per-slot recovery invariant audit
	// off (see invariant.go). The audit is on by default whenever recovery
	// is enabled; tests that deliberately construct pathological states can
	// opt out.
	DisableInvariantChecks bool

	// ReformationSlotsPerStation models the cost of building a new ring
	// (broadcast flooding + code redistribution) when the splice fails:
	// downtime = ReformationSlotsPerStation × N. Default 4.
	ReformationSlotsPerStation int64
}

// TRap returns T_rap = T_ear + T_update, or 0 when RAP is disabled.
func (p *Params) TRap() int64 {
	if !p.EnableRAP {
		return 0
	}
	return p.TEar + p.TUpdate
}

// Validate checks the parameter set for a ring of n founding stations.
func (p *Params) Validate(n int) error {
	if n < 3 {
		return fmt.Errorf("core: ring needs at least 3 stations, have %d", n)
	}
	if len(p.Quotas) != n {
		return fmt.Errorf("core: %d quotas for %d stations", len(p.Quotas), n)
	}
	for i, q := range p.Quotas {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("station %d: %w", i, err)
		}
	}
	if p.EnableRAP {
		if p.TEar < 8 {
			return fmt.Errorf("core: TEar=%d too short for the join handshake (need >= 8)", p.TEar)
		}
		if p.TUpdate < 1 {
			return errors.New("core: TUpdate must be >= 1 when RAP is enabled")
		}
	}
	if p.SRound < 0 || p.SatTimeMargin < 0 {
		return errors.New("core: negative SRound or SatTimeMargin")
	}
	return nil
}

// AppendUniformQuotas appends n identical quotas with the given l and k
// split evenly favouring Assured (k1 = ceil(k/2)) onto dst, reusing its
// capacity.
func AppendUniformQuotas(dst []Quota, n, l, k int) []Quota {
	q := Quota{L: l, K1: (k + 1) / 2, K2: k / 2}
	for i := 0; i < n; i++ {
		dst = append(dst, q)
	}
	return dst
}

// SumLK returns Σ_j (l_j + k_j) over the given quotas.
func SumLK(qs []Quota) int64 {
	var s int64
	for _, q := range qs {
		s += int64(q.L + q.K())
	}
	return s
}
