package serve

import (
	"fmt"
	"slices"
	"testing"

	"dynalloc/internal/rng"
	"dynalloc/internal/stats"
)

// Statistical acceptance tests for the two departure samplers. Each
// draw is undone with Alloc on the drawn bin so every draw sees the
// identical load vector, which makes the null hypothesis exact:
// FreeNonEmpty (Scenario B) must be uniform over the nonempty bins,
// FreeBall (Scenario A) must hit each bin with probability
// proportional to its load. Everything is seeded — a failure is a real
// sampler defect (or a knowingly changed distribution), never flake.

// drawDistribution samples the given sampler `draws` times against a
// frozen load vector and returns per-bin hit counts.
func drawDistribution(t *testing.T, st *Store, r *rng.RNG, draws int, sample func(*rng.RNG) (int, error)) []int {
	t.Helper()
	counts := make([]int, st.N())
	for d := 0; d < draws; d++ {
		b, err := sample(r)
		if err != nil {
			t.Fatalf("draw %d: %v", d, err)
		}
		counts[b]++
		admitOne(st, b) // undo: keep the load vector frozen
	}
	return counts
}

// loadStore builds a store with the given loads across a specific
// shard geometry.
func loadStore(loads []int, shards int) *Store {
	st := NewStoreShards(len(loads), shards)
	for b, l := range loads {
		for i := 0; i < l; i++ {
			admitOne(st, b)
		}
	}
	return st
}

// The fixture mixes empty bins, singletons and heavy bins, and its
// length (19) does not divide evenly into any shard count — the
// shard-walk arithmetic sees ragged final stripes.
var statLoads = []int{0, 3, 1, 0, 7, 2, 0, 1, 5, 0, 12, 1, 2, 0, 4, 9, 0, 1, 6}

const (
	statDraws = 20000
	// Reject the null below this p-value. With a dozen seeded subtests
	// at alpha=1e-3 a false failure is a percent-level event per seed
	// choice — and seeds are fixed, so a pass today is a pass forever;
	// a broken sampler lands at p < 1e-12 immediately.
	statAlpha = 1e-3
)

func TestFreeNonEmptyIsUniformOverNonEmptyBins(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := loadStore(statLoads, shards)
			r := rng.New(0xB100D + uint64(shards))
			counts := drawDistribution(t, st, r, statDraws, st.FreeNonEmpty)

			want := make([]float64, len(statLoads))
			for b, l := range statLoads {
				if l > 0 {
					want[b] = 1
				}
			}
			stat, df, p := stats.ChiSquareGOF(counts, want)
			if p < statAlpha {
				t.Errorf("FreeNonEmpty not uniform over nonempty bins: chi2=%.2f df=%d p=%.2g\ncounts=%v", stat, df, p, counts)
			}
		})
	}
}

func TestFreeBallIsLoadProportional(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := loadStore(statLoads, shards)
			r := rng.New(0xBA11 + uint64(shards))
			counts := drawDistribution(t, st, r, statDraws, st.FreeBall)

			want := make([]float64, len(statLoads))
			for b, l := range statLoads {
				want[b] = float64(l)
			}
			stat, df, p := stats.ChiSquareGOF(counts, want)
			if p < statAlpha {
				t.Errorf("FreeBall not load-proportional: chi2=%.2f df=%d p=%.2g\ncounts=%v", stat, df, p, counts)
			}
		})
	}
}

// TestSamplersAreDistinguishable is the power check: on a skewed load
// vector the two samplers have very different laws, and each must be
// *rejected* against the other's null. Without this, the two tests
// above could pass vacuously (e.g. if the chi-square had no power).
func TestSamplersAreDistinguishable(t *testing.T) {
	st := loadStore(statLoads, 4)
	r := rng.New(0xD15C)

	uniform := make([]float64, len(statLoads))
	proportional := make([]float64, len(statLoads))
	for b, l := range statLoads {
		if l > 0 {
			uniform[b] = 1
		}
		proportional[b] = float64(l)
	}

	ballCounts := drawDistribution(t, st, r, statDraws, st.FreeBall)
	if _, _, p := stats.ChiSquareGOF(ballCounts, uniform); p > 1e-12 {
		t.Errorf("FreeBall looks uniform over nonempty bins (p=%.2g); the GOF tests have no power", p)
	}
	nonEmptyCounts := drawDistribution(t, st, r, statDraws, st.FreeNonEmpty)
	if _, _, p := stats.ChiSquareGOF(nonEmptyCounts, proportional); p > 1e-12 {
		t.Errorf("FreeNonEmpty looks load-proportional (p=%.2g); the GOF tests have no power", p)
	}
}

// TestFreeNonEmptySingleSurvivor pins the degenerate distribution: with
// one nonempty bin every draw must hit it, whatever the geometry.
func TestFreeNonEmptySingleSurvivor(t *testing.T) {
	loads := make([]int, 16)
	loads[11] = 5000
	st := loadStore(loads, 8)
	r := rng.New(3)
	for d := 0; d < 200; d++ {
		if b, err := st.FreeNonEmpty(r); err != nil || b != 11 {
			t.Fatalf("draw %d: got bin %d, %v; want 11", d, b, err)
		}
		admitOne(st, 11)
	}
}

// TestFreeNonEmptyOnANearlyEmptyStore pins Scenario B where rejection
// sampling is hopeless: three nonempty bins, in different stripes, of
// 2^20. Every draw must stay uniform over the three, and must consume
// at most rejectTries + 2 variates (a draw that rejection-sampled to
// the end would take about n/3 = 350 000).
func TestFreeNonEmptyOnANearlyEmptyStore(t *testing.T) {
	const n = 1 << 20
	st := NewStoreShards(n, 8)
	full := []int{5, 400000, n - 1}
	for _, b := range full {
		admitOne(st, b)
	}
	r := rng.New(0x5BA25E)
	counts := make([]int, 3)
	for d := 0; d < 3000; d++ {
		before := *r
		b, err := st.FreeNonEmpty(r)
		if err != nil {
			t.Fatalf("draw %d: %v", d, err)
		}
		variates := 0
		for ; before != *r && variates <= rejectTries+2; variates++ {
			before.Uint64()
		}
		if before != *r {
			t.Fatalf("draw %d consumed more than %d variates", d, rejectTries+2)
		}
		i := slices.Index(full, b)
		if i < 0 {
			t.Fatalf("draw %d freed empty bin %d", d, b)
		}
		counts[i]++
		admitOne(st, b)
	}
	if _, _, p := stats.ChiSquareGOF(counts, []float64{1, 1, 1}); p < statAlpha {
		t.Errorf("FreeNonEmpty not uniform over a sparse store's nonempty bins: p=%.2g counts=%v", p, counts)
	}
}
