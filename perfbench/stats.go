package main

import (
	"math"
	"sort"
	"time"
)

// samples holds raw latency samples at nanosecond resolution. The benchmark
// keeps every sample rather than bucketing them, so a 200 µs cache hit reads
// as 200 µs and a percentile is exact for the samples taken.
type samples struct {
	ns     []int64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = false
}

func (s *samples) count() int { return len(s.ns) }

// quantile returns the nearest-rank q-quantile in nanoseconds: the smallest
// sample with at least q of all samples at or below it. It returns 0 when
// there are no samples.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
	return float64(s.ns[rankIndex(len(s.ns), q)])
}

// rankIndex is the zero-based nearest-rank index of quantile q among n
// sorted values.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is the number of samples strictly above the q-quantile's rank —
// the guide's rule is that a reported percentile needs at least ten.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// median of float values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio guards a division whose denominator may be zero on a workload that
// does not exercise the layer.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)
