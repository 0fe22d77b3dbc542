package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(100), 50, 50},
		{seq(100), 99, 99},
		{seq(100), 100, 100},
		{seq(100), 0.5, 1},
		{seq(101), 50, 51},
		{seq(4), 50, 2},
		{seq(4), 75, 3},
		{seq(4), 76, 4},
		{[]float64{7}, 99, 7},
	} {
		if got := percentileSorted(tc.xs, tc.p); got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.p, len(tc.xs), got, tc.want)
		}
	}
	if got := percentileSorted(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
	// An unsorted input is the caller's to sort: median does.
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it; otherwise the next rung down that qualifies is, and says so.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantP     float64
		wantValue float64
	}{
		{1000, 99, 990}, // exactly 10 beyond
		{999, 95, 950},  // 9 beyond p99: falls to p95, which has 49
		{200, 95, 190},  // 10 beyond p95
		{199, 90, 180},  // 9 beyond p95 (rank 190): falls to p90 (rank 180)
		{40, 75, 30},    // 10 beyond p75
		{39, 50, 20},    // 9 beyond p75: the median
		{5, 50, 3},      // nothing qualifies: the median
	} {
		v, p := tailPercentile(seq(tc.n), 99)
		if p != tc.wantP || v != tc.wantValue {
			t.Errorf("n=%d: tail is p%g = %g, want p%g = %g", tc.n, p, v, tc.wantP, tc.wantValue)
		}
	}
	var l latencies
	for _, x := range seq(999) {
		l.add(int64(x) * 1000)
	}
	s := l.summarize(1e3)
	if s.n != 999 || s.p50 != 500 || s.tailP != 95 || s.tail != 950 {
		t.Errorf("summary of 1..999 us = %+v", s)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{seq(2), 0.75, 1.5, 2.25},
		{seq(3), 1, 2, 3},
		{[]float64{10, 1, 7, 3, 8, 2, 9, 4, 6, 5, 20}, 3, 6, 9},
		{[]float64{1.5, 1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: no error")
	}
	sp, err := spread(seq(10))
	if err != nil || math.Abs(sp-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, %v; want (8.25-2.75)/5.5 = 1", sp, err)
	}
	if _, err := spread([]float64{-1, 0, 1}); err == nil {
		t.Error("spread around a zero median: no error")
	}
}

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 125, "higher", -0.25},
	} {
		if got := worsening(tc.a, tc.b, tc.better); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worsening(%g, %g, %s) = %g, want %g", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}
