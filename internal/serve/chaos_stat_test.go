package serve

import (
	"math"
	"testing"

	"dynalloc/internal/stats"
)

// Chi-square battery entry for the chaos injector's Poisson clock: the
// interarrival gaps must be Exp(rate). The test bins 20k draws into 20
// equiprobable exponential quantile bins, so the null gives every bin
// the same expectation and the GOF statistic is exact. Seeded like the
// sampler battery in sampling_stat_test.go: a failure is a sampler
// defect, never flake.
func TestChaosInterarrivalIsExponential(t *testing.T) {
	st, det := chaosFixture(t)
	const (
		rate  = 2.0
		draws = 20000
		bins  = 20
	)
	inj, err := NewChaosInjector(ChaosConfig{
		Store: st, Detector: det, Seed: 0xCA7A5, Rate: rate, Faults: []string{ChaosCrash},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Quantile boundaries of Exp(rate): q_i = -ln(1 - i/bins) / rate.
	bounds := make([]float64, bins-1)
	for i := 1; i < bins; i++ {
		bounds[i-1] = -math.Log(1-float64(i)/bins) / rate
	}
	observed := make([]int, bins)
	var sum float64
	for d := 0; d < draws; d++ {
		gap := inj.interarrival().Seconds()
		if gap < 0 {
			t.Fatalf("draw %d: negative interarrival %g", d, gap)
		}
		sum += gap
		b := 0
		for b < bins-1 && gap >= bounds[b] {
			b++
		}
		observed[b]++
	}

	expected := make([]float64, bins)
	for i := range expected {
		expected[i] = 1
	}
	stat, df, p := stats.ChiSquareGOF(observed, expected)
	if p < statAlpha {
		t.Errorf("interarrivals not Exp(%g): chi2=%.2f df=%d p=%.2g\ncounts=%v", rate, stat, df, p, observed)
	}

	// Pin the rate explicitly too: mean gap must be 1/rate.
	mean := sum / draws
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("mean interarrival %gs, want ~%gs", mean, 1/rate)
	}

	// Power check, mirroring TestSamplersAreDistinguishable: a uniform
	// law on [0, 2/rate] has the same mean but must be rejected.
	uniform := make([]int, bins)
	r := inj.r
	for d := 0; d < draws; d++ {
		gap := r.Float64() * 2 / rate
		b := 0
		for b < bins-1 && gap >= bounds[b] {
			b++
		}
		uniform[b]++
	}
	if _, _, p := stats.ChiSquareGOF(uniform, expected); p > 1e-12 {
		t.Errorf("uniform gaps pass the exponential GOF (p=%.2g); the battery has no power", p)
	}
}
