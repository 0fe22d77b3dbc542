package serve

import (
	"sync"
	"time"

	"dynalloc/internal/metrics"
)

// EpisodeReport is one completed recovery episode as the tracker saw
// it: opened by a fault while the store was typical, extended by every
// fault that landed before recovery, and closed by the first Check
// that found the store typical again.
type EpisodeReport struct {
	Kind        string        `json:"kind"`         // kind of the fault that opened the episode
	Faults      int           `json:"faults"`       // faults merged into it (>= 1)
	Steps       int64         `json:"steps"`        // admissions from first fault to recovery
	Wall        time.Duration `json:"wall_ns"`      // wall clock from first fault to recovery
	BudgetRatio float64       `json:"budget_ratio"` // Steps / Theorem-1 budget (0 when no budget)
}

// EpisodeSummary aggregates a tracker's full history — the numbers the
// chaos drill gates on and /state?summary=1 serves.
type EpisodeSummary struct {
	Completed    int64 `json:"completed"`     // episodes closed by a recovery
	Faults       int64 `json:"faults"`        // every fault noted, merged or not
	MergedFaults int64 `json:"merged_faults"` // faults that landed inside an open episode

	Open       bool          `json:"open"`                   // an episode is in progress
	OpenKind   string        `json:"open_kind,omitempty"`    // kind that opened it
	OpenFaults int           `json:"open_faults,omitempty"`  // faults merged into it so far
	OpenWall   time.Duration `json:"open_wall_ns,omitempty"` // downtime accrued so far

	TotalDowntime  time.Duration `json:"total_downtime_ns"` // sum of completed episode walls
	TotalDownSteps int64         `json:"total_down_steps"`  // sum of completed episode steps

	MTTR      time.Duration `json:"mttr_ns"`    // TotalDowntime / Completed
	MTTRSteps float64       `json:"mttr_steps"` // TotalDownSteps / Completed

	MaxWall          time.Duration `json:"max_wall_ns"`        // slowest completed recovery
	MaxSteps         int64         `json:"max_steps"`          // largest completed recovery in steps
	WorstBudgetRatio float64       `json:"worst_budget_ratio"` // max Steps/budget over completed episodes
	BudgetSteps      float64       `json:"budget_steps"`       // the Theorem 1 scale episodes are judged against

	FaultsByKind map[string]int64 `json:"faults_by_kind,omitempty"`
	Last         *EpisodeReport   `json:"last,omitempty"` // most recently completed episode
}

// EpisodeTracker segments the Detector's recovered/disrupted timeline
// into recovery episodes — the continuous-fault counterpart of the
// detector's one-shot Episode. The self-stabilization yardstick
// (Becchetti et al.'s repeated balls-into-bins results) is that the
// system returns to the typical state no matter when or how often
// faults land, so the tracker's unit of account is the *outage*, not
// the fault: a fault that arrives while the store is already disrupted
// merges into the open episode, and the episode is measured from the
// FIRST fault to the recovery that ends it. From the episodes it
// publishes MTTR, total downtime, episode counts, and recovery-time
// histograms normalized against the Theorem 1 budget:
//
//	serve.episodes.completed      counter  episodes closed by a recovery
//	serve.episodes.faults         counter  faults noted (by kind in the summary)
//	serve.episodes.merged_faults  counter  faults merged into an open episode
//	serve.episodes.open           gauge    1 while an episode is in progress
//	serve.episodes.mttr_ns        gauge    mean time to recovery, wall clock
//	serve.episodes.mttr_steps     gauge    mean time to recovery, admission steps
//	serve.episodes.downtime_ns    gauge    total wall-clock downtime
//	serve.episodes.steps          hist     per-episode recovery steps
//	serve.episodes.wall_ns        hist     per-episode recovery wall clock
//	serve.episodes.budget_pct     hist     per-episode steps as % of the Theorem 1 budget
//
// The tracker does not observe the store itself: the Detector drives
// it (AttachEpisodes), calling noteFault on MarkDisrupted/NoteFault
// and on a drift-opened outage, and noteRecovered when a Check closes
// one. All methods are safe for concurrent use.
type EpisodeTracker struct {
	budget float64 // Theorem 1 steps; <= 0 disables normalization

	mu         sync.Mutex
	st         EpisodeState // open episode == !st.Recovered; origin kept across merged faults
	openKind   string
	openFaults int

	completed      int64
	faults         int64
	merged         int64
	totalDowntime  time.Duration
	totalDownSteps int64
	maxWall        time.Duration
	maxSteps       int64
	worstRatio     float64
	byKind         map[string]int64
	last           EpisodeReport
	haveLast       bool
}

// NewEpisodeTracker returns a tracker judging episodes against the
// Theorem 1 budget (pass target.BudgetSteps; <= 0 disables the
// normalized histogram and ratios).
func NewEpisodeTracker(budgetSteps float64) *EpisodeTracker {
	return &EpisodeTracker{budget: budgetSteps, byKind: make(map[string]int64), st: EpisodeState{Recovered: true}}
}

// noteFault records a fault of the given kind at the store clock
// (steps, now). It opens an episode if none is in progress; otherwise
// the fault merges into the open one and the origin stamp is kept —
// the episode measures from the first fault.
func (t *EpisodeTracker) noteFault(kind string, steps int64, now time.Time) {
	t.mu.Lock()
	t.faults++
	t.byKind[kind]++
	mergedHere := !t.st.Disrupt(steps, now)
	if mergedHere {
		t.merged++
		t.openFaults++
	} else {
		t.openKind = kind
		t.openFaults = 1
	}
	t.mu.Unlock()
	metrics.AddCounter("serve.episodes.faults", 1)
	metrics.SetGauge("serve.episodes.open", 1)
	if mergedHere {
		metrics.AddCounter("serve.episodes.merged_faults", 1)
	}
}

// noteRecovered closes the open episode at the store clock (steps,
// now). A recovery with no open episode is ignored (the detector can
// start recovered, or recover before the tracker was attached).
func (t *EpisodeTracker) noteRecovered(steps int64, now time.Time) {
	t.mu.Lock()
	closed, ok, _ := t.st.Observe(true, steps, now)
	if !ok {
		t.mu.Unlock()
		return
	}
	ep := EpisodeReport{
		Kind:   t.openKind,
		Faults: t.openFaults,
		Steps:  closed.Steps,
		Wall:   closed.Wall,
	}
	if ep.Steps < 0 {
		ep.Steps = 0
	}
	if ep.Wall < 0 {
		ep.Wall = 0
	}
	if t.budget > 0 {
		ep.BudgetRatio = float64(ep.Steps) / t.budget
	}
	t.openKind = ""
	t.openFaults = 0
	t.completed++
	t.totalDowntime += ep.Wall
	t.totalDownSteps += ep.Steps
	if ep.Wall > t.maxWall {
		t.maxWall = ep.Wall
	}
	if ep.Steps > t.maxSteps {
		t.maxSteps = ep.Steps
	}
	if ep.BudgetRatio > t.worstRatio {
		t.worstRatio = ep.BudgetRatio
	}
	t.last = ep
	t.haveLast = true
	completed := t.completed
	downtime := t.totalDowntime
	downSteps := t.totalDownSteps
	t.mu.Unlock()

	metrics.AddCounter("serve.episodes.completed", 1)
	metrics.SetGauge("serve.episodes.open", 0)
	metrics.SetGauge("serve.episodes.downtime_ns", float64(downtime.Nanoseconds()))
	metrics.SetGauge("serve.episodes.mttr_ns", float64(downtime.Nanoseconds())/float64(completed))
	metrics.SetGauge("serve.episodes.mttr_steps", float64(downSteps)/float64(completed))
	metrics.ObserveHistogram("serve.episodes.steps", ep.Steps)
	metrics.ObserveHistogram("serve.episodes.wall_ns", ep.Wall.Nanoseconds())
	if t.budget > 0 {
		metrics.ObserveHistogram("serve.episodes.budget_pct", int64(ep.BudgetRatio*100))
	}
}

// Completed returns the number of closed episodes.
func (t *EpisodeTracker) Completed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// Summary snapshots the tracker's full history. OpenWall is measured
// against time.Now for an in-progress episode.
func (t *EpisodeTracker) Summary() EpisodeSummary {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := EpisodeSummary{
		Completed:        t.completed,
		Faults:           t.faults,
		MergedFaults:     t.merged,
		Open:             !t.st.Recovered,
		TotalDowntime:    t.totalDowntime,
		TotalDownSteps:   t.totalDownSteps,
		MaxWall:          t.maxWall,
		MaxSteps:         t.maxSteps,
		WorstBudgetRatio: t.worstRatio,
		BudgetSteps:      t.budget,
	}
	if s.Open {
		s.OpenKind = t.openKind
		s.OpenFaults = t.openFaults
		s.OpenWall = now.Sub(t.st.sinceTS)
	}
	if t.completed > 0 {
		s.MTTR = time.Duration(int64(t.totalDowntime) / t.completed)
		s.MTTRSteps = float64(t.totalDownSteps) / float64(t.completed)
	}
	if len(t.byKind) > 0 {
		s.FaultsByKind = make(map[string]int64, len(t.byKind))
		for k, v := range t.byKind {
			s.FaultsByKind[k] = v
		}
	}
	if t.haveLast {
		ep := t.last
		s.Last = &ep
	}
	return s
}
