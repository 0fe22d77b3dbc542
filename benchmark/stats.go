package main

import (
	"fmt"
	"math"
	"sort"
)

// Exact statistics over recorded samples. Everything here sorts a copy
// of the samples and reads ranks off it — never a bucketed histogram —
// so a percentile is a value that was actually measured.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted returns the p-th percentile (0 < p <= 100) of an
// ascending slice by the nearest-rank rule: the smallest sample with at
// least p percent of the samples at or below it. It returns NaN for an
// empty slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond returns how many samples of an ascending slice of length n lie
// strictly above the nearest-rank p-th percentile position.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank > n {
		rank = n
	}
	return n - rank
}

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: with fewer the "p99" is one of a handful of
// outliers and says nothing repeatable.
const minBeyond = 10

// tailLadder is the fallback order for a tail percentile that the
// sample cannot support.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder, not
// above want, that has at least minBeyond samples beyond it — and which
// percentile that was. With too few samples for any rung it returns the
// median.
func tailPercentile(s []float64, want float64) (value, used float64) {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if beyond(len(s), p) >= minBeyond {
			return percentileSorted(s, p), p
		}
	}
	return percentileSorted(s, 50), 50
}

// median returns the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 { return percentileSorted(sorted(xs), 50) }

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here match the ones the acceptance driver
// computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", len(xs))
	}
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based scale; the index is clamped
		// to [1, n-1] first and the remainder taken afterwards, so the
		// ends extrapolate exactly as Python's do.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3), nil
}

// spread is the interquartile range of xs as a share of its median —
// the steadiness figure the benchmark's bounds are calibrated against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("spread of samples with median 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// latencies collects duration samples in nanoseconds. The zero value is
// ready to use; it is single-writer.
type latencies struct {
	ns []float64
}

func (l *latencies) add(ns int64) { l.ns = append(l.ns, float64(ns)) }

func (l *latencies) merge(o *latencies) { l.ns = append(l.ns, o.ns...) }

func (l *latencies) count() int { return len(l.ns) }

func (l *latencies) sum() float64 {
	var s float64
	for _, x := range l.ns {
		s += x
	}
	return s
}

// summary is what one timing metric reports: median, the supported tail
// percentile and which one it is, and the sample count.
type summary struct {
	p50, tail, tailP float64
	n                int
}

// summarize computes the summary in the given unit (ns per unit: 1e3
// for µs, 1e6 for ms).
func (l *latencies) summarize(nsPerUnit float64) summary {
	s := sorted(l.ns)
	tail, used := tailPercentile(s, 99)
	return summary{
		p50:   percentileSorted(s, 50) / nsPerUnit,
		tail:  tail / nsPerUnit,
		tailP: used,
		n:     len(s),
	}
}
