package serve

import (
	"sync/atomic"
	"testing"

	"dynalloc/internal/core"
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

// gateSource is a LoadSource that reads typical levels and, once armed,
// blocks mid-read until released — where a crash can land between a
// Check's read and its transition.
type gateSource struct {
	steps            atomic.Int64
	reading, release chan struct{}
}

func (g *gateSource) Observe() Status {
	s := Status{Steps: g.steps.Load(), MaxLoad: 1}
	if g.reading != nil {
		g.reading <- struct{}{}
		<-g.release
	}
	return s
}

func (g *gateSource) Steps() int64 { return g.steps.Load() }
func (g *gateSource) Close()       {}

// TestCheckCannotCloseALaterFault: a Check whose read began before a
// fault was noted cannot close that fault's outage — its typical levels
// predate the crash. Without the epoch guard the stale read closes a
// bogus zero-step "crash" episode, and the real recovery is lost.
func TestCheckCannotCloseALaterFault(t *testing.T) {
	src := &gateSource{}
	d := NewSourceDetector(src, Target{PredictedMax: 1, BudgetSteps: 100}, "test")
	if s := d.Check(); !s.Recovered {
		t.Fatalf("boot outage not closed: %+v", s)
	}

	src.steps.Store(10)
	src.reading, src.release = make(chan struct{}), make(chan struct{})
	done := make(chan Status)
	go func() { done <- d.Check() }()
	<-src.reading // the Check has read typical levels at step 10
	d.NoteFault(ChaosCrash)
	close(src.release)
	if s := <-done; s.Recovered {
		t.Fatalf("a read that began before the crash reported recovered: %+v", s)
	}
	if sum := d.Summary(); sum.Completed != 1 || !sum.Open || sum.OpenKind != ChaosCrash {
		t.Fatalf("a read that began before the crash closed its outage: %+v", sum)
	}

	src.reading = nil
	src.steps.Store(25)
	if s := d.Check(); !s.Recovered {
		t.Fatalf("a read after the crash did not close it: %+v", s)
	}
	if ep, n := d.LastEpisode(); n != 2 || ep.Kind != ChaosCrash || ep.Steps != 15 {
		t.Fatalf("crash episode %+v (%d completed), want a crash of 15 steps", ep, n)
	}
}
