package serve_test

import (
	"net"
	"testing"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
)

// The detector suite runs every test once per load source: the store's
// level histogram, and a one-shard loopback fleet serving the same
// store over dgram. The tests drive the store directly, so both sources
// see one trajectory. A fleet stamps a fault with its last sweep's
// step clock, so a test that needs an exact origin checks first.

// rig is one detector under test. Its Check asserts, after every check
// — where episodes close — that no episode has negative steps or wall.
type rig struct {
	*serve.Detector
	t      *testing.T
	prefix string // the source's metric prefix
}

func (r rig) Check() serve.Status {
	r.t.Helper()
	s := r.Detector.Check()
	if ep, _ := r.LastEpisode(); ep.Steps < 0 || ep.Wall < 0 {
		r.t.Fatalf("negative episode: %+v", ep)
	}
	return s
}

func (r rig) metric(suffix string) string { return r.prefix + "." + suffix }

type detectFunc func(st *serve.Store, target serve.Target) rig

// eachSource runs test as one subtest per load source.
func eachSource(t *testing.T, test func(t *testing.T, detect detectFunc)) {
	t.Run("store", func(t *testing.T) {
		test(t, func(st *serve.Store, target serve.Target) rig {
			return rig{serve.NewDetector(st, target), t, "serve"}
		})
	})
	t.Run("fleet", func(t *testing.T) {
		test(t, func(st *serve.Store, target serve.Target) rig {
			srv := router.NewServer(router.ServerConfig{Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			t.Cleanup(func() { srv.Close(); <-done })
			rt, err := router.New(router.Options{Shards: []string{ln.Addr().String()}, D: 1, CallTimeout: 2 * time.Second, HealthInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			d := router.NewDetector(rt, target)
			t.Cleanup(d.Close)
			return rig{d, t, "router"}
		})
	})
}

// withMetrics enables a fresh metrics registry for one subtest.
func withMetrics(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	t.Cleanup(func() {
		metrics.Disable()
		metrics.Reset()
	})
}

// fakeClock is a detector wall clock the test advances by hand.
type fakeClock struct{ t time.Time }

func newFakeClock(d rig) *fakeClock {
	c := &fakeClock{time.Now()}
	serve.SetClock(d.Detector, func() time.Time { return c.t })
	return c
}

func (c *fakeClock) add(d time.Duration) { c.t = c.t.Add(d) }

// advance runs k admit/free pairs on bin 0: the step clock moves by k,
// the loads do not.
func advance(t *testing.T, st *serve.Store, k int) {
	for i := 0; i < k; i++ {
		if err := st.AdmitBatch([]int{0}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := st.FreeBin(0); err != nil {
			t.Fatal(err)
		}
	}
}

func drain(t *testing.T, st *serve.Store, bin, k int) {
	for i := 0; i < k; i++ {
		if _, err := st.FreeBin(bin); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDetectorEpisodes(t *testing.T) {
	eachSource(t, func(t *testing.T, detect detectFunc) {
		withMetrics(t)
		const n, m = 64, 64
		st := serve.NewStoreShards(n, 8)
		st.FillBalanced(m)
		d := detect(st, serve.Target{PredictedMax: 2, Slack: 1, BudgetSteps: 1})

		// Startup: balanced state is typical, so the first check closes
		// the initial (startup) episode.
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
		drain(t, st, 5, 40)
		advance(t, st, 1)
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

		// The metric surface: recovered gauge is 1, the recovery
		// histogram holds both completed episodes.
		snap := metrics.Default().Snapshot()
		if g := snap.Gauges[d.metric("recovered")]; g != 1 {
			t.Fatalf("%s gauge = %v, want 1", d.metric("recovered"), g)
		}
		if h := snap.Histograms[d.metric("recovery.steps")]; h.Count != 2 {
			t.Fatalf("%s count = %d, want 2", d.metric("recovery.steps"), h.Count)
		}
		if h := snap.Histograms[d.metric("recovery.wall_ns")]; h.Count != 2 {
			t.Fatalf("%s count = %d, want 2", d.metric("recovery.wall_ns"), h.Count)
		}
		if g := snap.Gauges[d.metric("target_max_load")]; g != 3 {
			t.Fatalf("%s gauge = %v, want 3", d.metric("target_max_load"), g)
		}
	})
}

func TestDetectorDriftReopensOutage(t *testing.T) {
	eachSource(t, func(t *testing.T, detect detectFunc) {
		st := serve.NewStoreShards(16, 4)
		st.FillBalanced(16)
		d := detect(st, serve.Target{PredictedMax: 1, Slack: 0})
		if s := d.Check(); !s.Recovered {
			t.Fatalf("balanced not typical: %+v", s)
		}
		// Drift out of the band without MarkDisrupted: the detector
		// itself must open a new outage on observation.
		st.Crash(0, 10)
		if s := d.Check(); s.Recovered {
			t.Fatal("detector missed the drift")
		}
		drain(t, st, 0, 10)
		if s := d.Check(); !s.Recovered {
			t.Fatal("detector missed the drift recovery")
		}
		if _, eps := d.LastEpisode(); eps != 2 {
			t.Fatalf("episodes = %d, want 2 (startup + drift)", eps)
		}
	})
}

// Synthetic-timeline tests: faults land at chosen steps on a clock the
// test advances by hand, so every duration and step count below is
// exact arithmetic, not wall-clock luck. The boot episode closes at
// once (0 steps, 0 wall) and counts like any other.

func TestEpisodeTrackerMergesOverlappingFaults(t *testing.T) {
	eachSource(t, func(t *testing.T, detect detectFunc) {
		st := serve.NewStore(64)
		st.FillBalanced(64)
		d := detect(st, serve.Target{PredictedMax: 2, Slack: 1, BudgetSteps: 1000})
		clock := newFakeClock(d)
		d.Check()

		advance(t, st, 100)
		d.Check()
		d.NoteFault("crash") // at step 100
		advance(t, st, 50)
		clock.add(10 * time.Millisecond)
		d.NoteFault("stall")
		advance(t, st, 30)
		clock.add(10 * time.Millisecond)
		d.NoteFault("crash")
		advance(t, st, 220)
		clock.add(30 * time.Millisecond)
		d.Check() // at step 400

		s := d.Summary()
		if s.Completed != 2 {
			t.Fatalf("boot plus three overlapping faults made %d episodes, want 2 (merge semantics)", s.Completed)
		}
		if s.Faults != 4 || s.MergedFaults != 2 {
			t.Fatalf("faults=%d merged=%d, want 4 (startup + 3)/2", s.Faults, s.MergedFaults)
		}
		if s.Open {
			t.Fatal("episode still open after recovery")
		}
		ep := s.Last
		if ep == nil {
			t.Fatal("no last episode")
		}
		// Measured from the FIRST fault: 400-100 steps, 50ms wall — not
		// from the last fault's stamps.
		if ep.Steps != 300 || ep.Wall != 50*time.Millisecond {
			t.Fatalf("episode measured %d steps / %v, want 300 / 50ms (from the first fault)", ep.Steps, ep.Wall)
		}
		if ep.Kind != "crash" || ep.Faults != 3 {
			t.Fatalf("episode kind=%q faults=%d, want crash/3", ep.Kind, ep.Faults)
		}
		if ep.BudgetRatio != 0.3 {
			t.Fatalf("budget ratio = %g, want 0.3 (300 steps / 1000 budget)", ep.BudgetRatio)
		}
		if s.FaultsByKind["crash"] != 2 || s.FaultsByKind["stall"] != 1 {
			t.Fatalf("faults by kind: %v", s.FaultsByKind)
		}

		// A recovery with nothing open is ignored, not another episode.
		advance(t, st, 100)
		d.Check()
		if got := d.Summary().Completed; got != 2 {
			t.Fatalf("spurious recovery closed an episode: completed=%d", got)
		}
	})
}

func TestEpisodeTrackerMTTRArithmetic(t *testing.T) {
	eachSource(t, func(t *testing.T, detect detectFunc) {
		st := serve.NewStore(64)
		st.FillBalanced(64)
		d := detect(st, serve.Target{PredictedMax: 2, Slack: 1, BudgetSteps: 1000})
		clock := newFakeClock(d)
		d.Check()

		// Three disjoint episodes after the boot's: (100 steps, 10ms),
		// (300, 30ms), (200, 20ms).
		timeline := []struct {
			steps int
			wall  time.Duration
		}{{100, 10 * time.Millisecond}, {300, 30 * time.Millisecond}, {200, 20 * time.Millisecond}}
		for _, ep := range timeline {
			d.Check()
			d.NoteFault("crash")
			advance(t, st, ep.steps)
			clock.add(ep.wall)
			d.Check()
			advance(t, st, 1000) // healthy gap between episodes
			clock.add(time.Second)
		}

		s := d.Summary()
		if s.Completed != 4 || s.Faults != 4 || s.MergedFaults != 0 {
			t.Fatalf("completed=%d faults=%d merged=%d, want 4/4/0 (boot + 3)", s.Completed, s.Faults, s.MergedFaults)
		}
		if s.TotalDownSteps != 600 || s.TotalDowntime != 60*time.Millisecond {
			t.Fatalf("total downtime %d steps / %v, want 600 / 60ms", s.TotalDownSteps, s.TotalDowntime)
		}
		if s.MTTRSteps != 150 || s.MTTR != 15*time.Millisecond {
			t.Fatalf("MTTR %g steps / %v, want 150 / 15ms (600 / 60ms over 4)", s.MTTRSteps, s.MTTR)
		}
		if s.MaxSteps != 300 || s.MaxWall != 30*time.Millisecond {
			t.Fatalf("max %d steps / %v, want 300 / 30ms", s.MaxSteps, s.MaxWall)
		}
		if s.WorstBudgetRatio != 0.3 {
			t.Fatalf("worst budget ratio %g, want 0.3", s.WorstBudgetRatio)
		}

		// An open episode shows up in the summary without touching the
		// completed aggregates.
		d.Check()
		d.NoteFault("enospc")
		s = d.Summary()
		if !s.Open || s.OpenKind != "enospc" || s.OpenFaults != 1 {
			t.Fatalf("open episode not reported: %+v", s)
		}
		if s.Completed != 4 || s.MTTRSteps != 150 {
			t.Fatalf("open episode leaked into completed aggregates: %+v", s)
		}
	})
}

// TestDetectorDrivesEpisodeTracker covers the history end to end: the
// boot outage, announced faults and drift open episodes, recoveries
// close them, and faults that land mid-outage merge.
func TestDetectorDrivesEpisodeTracker(t *testing.T) {
	eachSource(t, func(t *testing.T, detect detectFunc) {
		withMetrics(t)
		st := serve.NewStore(8)
		st.FillBalanced(16) // 2 per bin
		d := detect(st, serve.Target{PredictedMax: 2, Slack: 1, BudgetSteps: 100})

		// The detector starts disrupted, with the startup episode open;
		// the first Check observes a typical state and closes it.
		if s := d.Summary(); !s.Open || s.OpenKind != "startup" {
			t.Fatalf("no startup episode open at boot: %+v", s)
		}
		if s := d.Check(); !s.Recovered {
			t.Fatalf("balanced store not recovered: %+v", s)
		}
		if got := d.Summary().Completed; got != 1 {
			t.Fatalf("startup episode not closed: completed=%d", got)
		}

		// A crash opens episode 2; a second fault mid-outage merges.
		st.Crash(3, 10)
		d.NoteFault(serve.ChaosCrash)
		if s := d.Check(); s.Recovered {
			t.Fatalf("crashed store recovered early: %+v", s)
		}
		st.Crash(5, 4)
		d.NoteFault(serve.ChaosStall) // overlapping fault: same episode
		sum := d.Summary()
		if sum.Completed != 1 || !sum.Open || sum.OpenFaults != 2 || sum.MergedFaults != 1 {
			t.Fatalf("overlapping faults not merged: %+v", sum)
		}

		// Drain both crashed bins; recovery closes episode 2.
		drain(t, st, 3, 10)
		drain(t, st, 5, 4)
		if s := d.Check(); !s.Recovered {
			t.Fatalf("drained store not recovered: %+v", s)
		}
		sum = d.Summary()
		if sum.Completed != 2 || sum.Open {
			t.Fatalf("crash episode not closed: %+v", sum)
		}
		if sum.Last.Kind != serve.ChaosCrash || sum.Last.Faults != 2 {
			t.Fatalf("episode 2 attribution: %+v", sum.Last)
		}
		if sum.FaultsByKind["startup"] != 1 || sum.FaultsByKind[serve.ChaosCrash] != 1 || sum.FaultsByKind[serve.ChaosStall] != 1 {
			t.Fatalf("faults by kind: %v", sum.FaultsByKind)
		}

		// A drift out of the typical band (no explicit fault call) opens
		// an episode of kind "drift".
		st.Crash(1, 10)
		if s := d.Check(); s.Recovered {
			t.Fatalf("drifted store still recovered: %+v", s)
		}
		sum = d.Summary()
		if !sum.Open || sum.OpenKind != "drift" {
			t.Fatalf("drift did not open a drift episode: %+v", sum)
		}
		drain(t, st, 1, 10)
		d.Check()
		if got := d.Summary().Completed; got != 3 {
			t.Fatalf("drift episode not closed: completed=%d", got)
		}

		snap := metrics.Default().Snapshot()
		if got := snap.Counters[d.metric("episodes.completed")]; got != 3 {
			t.Fatalf("%s = %d, want 3", d.metric("episodes.completed"), got)
		}
		if got := snap.Counters[d.metric("episodes.faults")]; got != 4 {
			t.Fatalf("%s = %d, want 4", d.metric("episodes.faults"), got)
		}
		if got := snap.Counters[d.metric("episodes.merged_faults")]; got != 1 {
			t.Fatalf("%s = %d, want 1", d.metric("episodes.merged_faults"), got)
		}
		if h, ok := snap.Histograms[d.metric("episodes.steps")]; !ok || h.Count != 3 {
			t.Fatalf("%s histogram: %+v (ok=%v)", d.metric("episodes.steps"), h, ok)
		}
		if h, ok := snap.Histograms[d.metric("episodes.budget_pct")]; !ok || h.Count != 3 {
			t.Fatalf("%s histogram: %+v (ok=%v)", d.metric("episodes.budget_pct"), h, ok)
		}
		if g := snap.Gauges[d.metric("episodes.open")]; g != 0 {
			t.Fatalf("%s gauge = %g, want 0", d.metric("episodes.open"), g)
		}
		if g := snap.Gauges[d.metric("episodes.mttr_ns")]; g <= 0 {
			t.Fatalf("%s gauge = %g, want > 0", d.metric("episodes.mttr_ns"), g)
		}
	})
}
