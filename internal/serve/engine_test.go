package serve

import (
	"context"
	"testing"
	"time"

	"dynalloc/internal/process"
)

func TestEngineClosedLoopConservesBalls(t *testing.T) {
	const n, m, steps = 128, 128, 5000
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		st := NewStoreShards(n, 8)
		st.FillBalanced(m)
		eng := NewEngine(Config{
			Store: st, Policy: NewABKUPolicy(2), Scenario: sc,
			Workers: 1, Seed: 11, MaxSteps: steps,
		})
		res := eng.Run(context.Background())
		if res.Steps != steps {
			t.Fatalf("scenario %v: ran %d steps, want %d", sc, res.Steps, steps)
		}
		if st.Total() != m {
			t.Fatalf("scenario %v: closed loop changed the ball count to %d", sc, st.Total())
		}
		if st.Allocs() != steps || st.Frees() != steps {
			t.Fatalf("scenario %v: clocks allocs=%d frees=%d, want %d each", sc, st.Allocs(), st.Frees(), steps)
		}
	}
}

func TestEngineSingleWorkerDeterminism(t *testing.T) {
	run := func() []int {
		st := NewStoreShards(64, 8)
		st.FillBalanced(96)
		eng := NewEngine(Config{
			Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
			Workers: 1, Seed: 1998, MaxSteps: 3000,
		})
		eng.Run(context.Background())
		return st.LoadsCopy()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d diverged between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineMultiWorker(t *testing.T) {
	const n, m, steps = 256, 512, 20000
	st := NewStoreShards(n, 16)
	st.FillBalanced(m)
	eng := NewEngine(Config{
		Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
		Workers: 8, Seed: 3, MaxSteps: steps,
	})
	res := eng.Run(context.Background())
	// Workers race the MaxSteps check, so a handful of phases past the
	// budget are possible — but never more than one extra per worker.
	if res.Steps < steps || res.Steps > steps+8 {
		t.Fatalf("ran %d steps, want ~%d", res.Steps, steps)
	}
	if st.Total() != m {
		t.Fatalf("ball count drifted to %d, want %d", st.Total(), m)
	}
}

func TestEngineEmptyStoreHalts(t *testing.T) {
	st := NewStoreShards(16, 4) // no balls at all
	eng := NewEngine(Config{
		Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
		Workers: 2, Seed: 1, MaxSteps: 100,
	})
	done := make(chan Result, 1)
	go func() { done <- eng.Run(context.Background()) }()
	select {
	case res := <-done:
		if res.Steps != 0 {
			t.Fatalf("empty store executed %d phases", res.Steps)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not halt on an empty store")
	}
}

func TestEngineContextCancel(t *testing.T) {
	st := NewStoreShards(64, 8)
	st.FillBalanced(64)
	ctx, cancel := context.WithCancel(context.Background())
	eng := NewEngine(Config{
		Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
		Workers: 2, Seed: 9, // no MaxSteps: only ctx stops it
	})
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan Result, 1)
	go func() { done <- eng.Run(ctx) }()
	select {
	case res := <-done:
		if res.Steps == 0 {
			t.Fatal("no phases before cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine ignored context cancellation")
	}
}

func TestEngineOpenLoopPacing(t *testing.T) {
	st := NewStoreShards(32, 4)
	st.FillBalanced(32)
	eng := NewEngine(Config{
		Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
		Workers: 2, Seed: 4, Rate: 50000, MaxSteps: 200,
	})
	res := eng.Run(context.Background())
	if res.Steps < 200 || res.Steps > 202 {
		t.Fatalf("paced run executed %d phases, want ~200", res.Steps)
	}
}

// TestEngineCrashRecovery is the in-package form of the crash/recover
// drill: seed a balanced store, crash one bin, and drive Scenario A
// with ABKU[2] until the detector observes the typical state. The
// paper's Theorem 1 promises recovery within O(m ln m) phases; the
// budget below is that scale with a generous constant.
func TestEngineCrashRecovery(t *testing.T) {
	const (
		n     = 64
		m0    = 64
		crash = 128
	)
	st := NewStoreShards(n, 8)
	st.FillBalanced(m0)
	st.Crash(0, crash)
	m := m0 + crash

	pol := NewABKUPolicy(2)
	target, err := NewTarget(pol, process.ScenarioA, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(st, target)
	det.MarkDisrupted()

	budget := int64(40 * target.BudgetSteps) // 40 · m·ln(4m)
	eng := NewEngine(Config{
		Store: st, Policy: pol, Scenario: process.ScenarioA,
		Workers: 1, Seed: 2024, MaxSteps: budget,
		Detector: det, CheckEvery: 32, StopOnRecovery: true,
	})
	res := eng.Run(context.Background())
	if !res.Recovered {
		t.Fatalf("no recovery within %d phases (budget 40·m·ln(4m)); last: %+v", budget, det.Check())
	}
	if res.Episode.Steps <= 0 || res.Episode.Steps > budget {
		t.Fatalf("episode steps %d outside (0, %d]", res.Episode.Steps, budget)
	}
	if st.Total() != int64(m) {
		t.Fatalf("ball count drifted to %d, want %d", st.Total(), m)
	}
}
