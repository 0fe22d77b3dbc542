package serve

import (
	"context"
	"fmt"
	"slices"
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
			Seed: 11, MaxSteps: steps,
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

// TestEngineDeterminism: a drive is a function of its seed. Two runs of
// the same config — passes of 1 and of 64, Scenario A and B, and a
// crash recovery under a detector with StopOnRecovery — end with the
// same loads, the same clocks and the same episode, and a MaxSteps
// drive runs exactly MaxSteps phases whatever the pass size.
func TestEngineDeterminism(t *testing.T) {
	type outcome struct {
		loads          []int
		allocs, frees  int64
		steps, episode int64
	}
	const n, m, steps = 64, 96, 3000
	run := func(sc process.Scenario, batch int, crash bool) outcome {
		st := NewStoreShards(n, 8)
		st.FillBalanced(m)
		cfg := Config{
			Store: st, Policy: NewABKUPolicy(2), Scenario: sc,
			Seed: 1998, MaxSteps: steps, Batch: batch,
		}
		if crash {
			st.Crash(0, 2*m)
			target, err := NewTarget(cfg.Policy, sc, n, 3*m, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Detector = NewDetector(st, target)
			cfg.Detector.MarkDisrupted()
			cfg.CheckEvery, cfg.StopOnRecovery = 32, true
			cfg.MaxSteps = int64(40 * target.BudgetSteps)
		}
		res := NewEngine(cfg).Run(context.Background())
		if crash && !res.Recovered {
			t.Fatalf("no recovery within %d phases", cfg.MaxSteps)
		}
		if !crash && res.Steps != steps {
			t.Fatalf("scenario %v, batch %d: ran %d phases, want exactly %d", sc, batch, res.Steps, steps)
		}
		return outcome{st.LoadsCopy(), st.Allocs(), st.Frees(), res.Steps, res.Episode.Steps}
	}
	type tc struct {
		sc    process.Scenario
		batch int
		crash bool
	}
	cases := []tc{{process.ScenarioA, 1, true}}
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		for _, batch := range []int{1, 64} {
			cases = append(cases, tc{sc, batch, false})
		}
	}
	for _, c := range cases {
		a, b := run(c.sc, c.batch, c.crash), run(c.sc, c.batch, c.crash)
		what := fmt.Sprintf("scenario %v, batch %d, crash %v", c.sc, c.batch, c.crash)
		if !slices.Equal(a.loads, b.loads) {
			t.Fatalf("%s: loads diverged between identical runs", what)
		}
		if a.allocs != b.allocs || a.frees != b.frees || a.steps != b.steps {
			t.Fatalf("%s: clocks diverged: allocs %d/%d, frees %d/%d, steps %d/%d", what, a.allocs, b.allocs, a.frees, b.frees, a.steps, b.steps)
		}
		if a.episode != b.episode || (c.crash && a.episode <= 0) {
			t.Fatalf("%s: episode steps %d and %d", what, a.episode, b.episode)
		}
	}
}

func TestEngineEmptyStoreHalts(t *testing.T) {
	st := NewStoreShards(16, 4) // no balls at all
	eng := NewEngine(Config{
		Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
		Seed: 1, MaxSteps: 100,
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
		Seed: 9, // no MaxSteps: only ctx stops it
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
		Seed: 2024, MaxSteps: budget,
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
