package serve

import (
	"testing"

	"dynalloc/internal/core"
	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
)

func TestNewTarget(t *testing.T) {
	const n, m = 1024, 1024
	p := NewABKUPolicy(2)
	target, err := NewTarget(p, process.ScenarioA, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// At load factor 1 the two-choice stationary max load is tiny
	// (Theta(ln ln n) above the mean); the fluid prediction must land
	// in a sane band.
	if target.PredictedMax < 1 || target.PredictedMax > 8 {
		t.Fatalf("predicted max %d out of sane band [1,8]", target.PredictedMax)
	}
	if target.MaxLoad() != target.PredictedMax+1 {
		t.Fatalf("MaxLoad() = %d, want predicted+slack", target.MaxLoad())
	}
	if want := core.Theorem1Bound(m, 0.25); target.BudgetSteps != want {
		t.Fatalf("budget %v, want Theorem 1 bound %v", target.BudgetSteps, want)
	}
	if _, err := NewTarget(p, process.ScenarioA, 0, 1, 0); err == nil {
		t.Fatal("NewTarget accepted n=0")
	}
	if _, err := NewTarget(p, process.ScenarioA, 4, 4, -1); err == nil {
		t.Fatal("NewTarget accepted negative slack")
	}
}

func TestNewTargetMixed(t *testing.T) {
	target, err := NewTarget(NewMixedPolicy(0.5), process.ScenarioB, 256, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The (1+beta) mixture sits between Uniform and ABKU[2]; its
	// stationary max at load factor 1 is small but above 1.
	if target.PredictedMax < 1 || target.PredictedMax > 12 {
		t.Fatalf("mixed predicted max %d out of sane band", target.PredictedMax)
	}
}

func TestDetectorEpisodes(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer metrics.Disable()
	defer metrics.Reset()

	const n, m = 64, 64
	st := NewStoreShards(n, 8)
	st.FillBalanced(m)
	target := Target{PredictedMax: 2, Slack: 1, BudgetSteps: 1}
	d := NewDetector(st, target)

	// Startup: balanced state is typical, so the first check closes the
	// initial (startup) episode.
	s := d.Check()
	if !s.Recovered || !d.Recovered() {
		t.Fatalf("balanced store not recovered: %+v", s)
	}
	if _, eps := d.LastEpisode(); eps != 1 {
		t.Fatalf("startup episode not recorded: %d episodes", eps)
	}

	// Crash and mark: the detector must flip to disrupted.
	st.Crash(5, 40)
	d.MarkDisrupted()
	if d.Recovered() {
		t.Fatal("recovered right after MarkDisrupted")
	}
	s = d.Check()
	if s.Recovered || s.MaxLoad < 40 {
		t.Fatalf("crash not observed: %+v", s)
	}
	if s.DeltaTypical == 0 || s.Gap == 0 {
		t.Fatalf("distance metrics flat after crash: %+v", s)
	}

	// Drain the crashed bin; do some admissions so the episode has a
	// nonzero step count, then the next check closes episode 2.
	for i := 0; i < 40; i++ {
		if _, err := st.FreeBin(5); err != nil {
			t.Fatal(err)
		}
	}
	admitOne(st, 5) // advance the step clock
	if _, err := st.FreeBin(5); err != nil {
		t.Fatal(err)
	}
	s = d.Check()
	if !s.Recovered {
		t.Fatalf("still disrupted after drain: %+v", s)
	}
	ep, eps := d.LastEpisode()
	if eps != 2 {
		t.Fatalf("episodes = %d, want 2", eps)
	}
	if ep.Steps != 1 {
		t.Fatalf("episode steps = %d, want the 1 admission since the crash", ep.Steps)
	}

	// The metric surface: recovered gauge is 1, the recovery histogram
	// holds both completed episodes.
	snap := metrics.Default().Snapshot()
	if g := snap.Gauges["serve.recovered"]; g != 1 {
		t.Fatalf("serve.recovered gauge = %v, want 1", g)
	}
	if h := snap.Histograms["serve.recovery.steps"]; h.Count != 2 {
		t.Fatalf("serve.recovery.steps count = %d, want 2", h.Count)
	}
	if h := snap.Histograms["serve.recovery.wall_ns"]; h.Count != 2 {
		t.Fatalf("serve.recovery.wall_ns count = %d, want 2", h.Count)
	}
	if g := snap.Gauges["serve.target_max_load"]; g != 3 {
		t.Fatalf("serve.target_max_load gauge = %v, want 3", g)
	}
}

func TestDetectorDriftReopensOutage(t *testing.T) {
	st := NewStoreShards(16, 4)
	st.FillBalanced(16)
	d := NewDetector(st, Target{PredictedMax: 1, Slack: 0})
	if s := d.Check(); !s.Recovered {
		t.Fatalf("balanced not typical: %+v", s)
	}
	// Drift out of the band without MarkDisrupted: the detector itself
	// must open a new outage on observation.
	st.Crash(0, 10)
	if s := d.Check(); s.Recovered {
		t.Fatal("detector missed the drift")
	}
	for i := 0; i < 10; i++ {
		st.FreeBin(0)
	}
	if s := d.Check(); !s.Recovered {
		t.Fatal("detector missed the drift recovery")
	}
	if _, eps := d.LastEpisode(); eps != 2 {
		t.Fatalf("episodes = %d, want 2 (startup + drift)", eps)
	}
}
