package dynalloc

// End-to-end integration test of the live subsystem: crash the serving
// store into a worst-case state and assert the online recovery detector
// fires within the paper's O(m ln m) scale — the serving-layer mirror
// of the offline pipeline in integration_test.go.

import (
	"context"
	"testing"

	"dynalloc/internal/core"
	"dynalloc/internal/process"
	"dynalloc/internal/serve"
)

func TestServeCrashRecoveryWithinTheorem1Scale(t *testing.T) {
	const (
		n     = 1024
		m0    = 1024
		crash = 3 * n // crash one bin to a tower holding 3n extra balls
		seed  = 1998  // single worker + pinned shards: fully deterministic
	)
	st := serve.NewStoreShards(n, 16)
	st.FillBalanced(m0)

	pol := serve.NewABKUPolicy(2)
	m := m0 + crash
	target, err := serve.NewTarget(pol, process.ScenarioA, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := serve.NewDetector(st, target)

	// Fault injection: the store leaves the typical state.
	st.Crash(0, crash)
	det.MarkDisrupted()
	if s := det.Check(); s.Recovered || s.MaxLoad < crash {
		t.Fatalf("crash not visible to the detector: %+v", s)
	}

	// Theorem 1: from an arbitrary state, I_A-ABKU[2] is within eps of
	// stationary after m ln(m/eps) phases. The detector's max-load
	// criterion is a coarser (one-dimensional) notion of "typical", so
	// a small constant over the bound is the right budget; c=8 holds
	// with a wide margin for this pinned seed (measured ~0.6x the
	// bound).
	budget := int64(8 * target.BudgetSteps)
	eng := serve.NewEngine(serve.Config{
		Store: st, Policy: pol, Scenario: process.ScenarioA,
		Seed: seed, MaxSteps: budget,
		Detector: det, CheckEvery: 256, StopOnRecovery: true,
	})
	res := eng.Run(context.Background())
	if !res.Recovered {
		s := det.Check()
		t.Fatalf("detector did not fire within %d phases (8x Theorem 1 bound %.0f); last: %+v",
			budget, target.BudgetSteps, s)
	}
	if res.Episode.Steps <= 0 || res.Episode.Steps > budget {
		t.Fatalf("episode steps %d outside (0, %d]", res.Episode.Steps, budget)
	}
	t.Logf("recovered in %d steps = %.2fx the m·ln(m/eps) bound (%.0f), wall %v",
		res.Episode.Steps, float64(res.Episode.Steps)/target.BudgetSteps,
		target.BudgetSteps, res.Episode.Wall)

	// The recovered state really is typical: max load within the fluid
	// prediction + slack, and the closed drive conserved the balls.
	s := det.Check()
	if s.MaxLoad > target.MaxLoad() {
		t.Fatalf("recovered with max load %d above target %d", s.MaxLoad, target.MaxLoad())
	}
	if st.Total() != int64(m) {
		t.Fatalf("closed drive changed the ball count to %d, want %d", st.Total(), m)
	}

	// Sanity tie to the theory layer: the budget the detector publishes
	// is exactly the Theorem 1 formula.
	if want := core.Theorem1Bound(m, 0.25); target.BudgetSteps != want {
		t.Fatalf("detector budget %.0f != Theorem1Bound %.0f", target.BudgetSteps, want)
	}
}
