package serve

import (
	"maps"
	"time"
)

// Episode is one completed recovery: the detector left the typical
// state (the boot, a fault, or a drift) and came back. The
// self-stabilization yardstick (Becchetti et al.'s repeated
// balls-into-bins results) is that the system returns to the typical
// state no matter when or how often faults land, so the unit of account
// is the *outage*, not the fault: a fault that arrives while an outage
// is open merges into it, and the episode is measured from the FIRST
// fault to the observation that ends it. Steps counts admissions (the
// service's phase clock), Wall elapsed wall-clock time.
type Episode struct {
	Kind        string        `json:"kind"`         // kind of the fault that opened the episode
	Faults      int           `json:"faults"`       // faults merged into it (>= 1)
	Steps       int64         `json:"steps"`        // admissions from first fault to recovery
	Wall        time.Duration `json:"wall_ns"`      // wall clock from first fault to recovery
	BudgetRatio float64       `json:"budget_ratio"` // Steps / Theorem-1 budget (0 when no budget)
}

// EpisodeSummary aggregates a detector's full history — the numbers the
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
	Last         *Episode         `json:"last,omitempty"` // most recently completed episode
}

// episodes is a Detector's recovered/disrupted timeline and the history
// of its closed outages. It begins recovered (the Detector opens the
// boot outage as a "startup" fault); a fault while recovered opens an
// outage and one while disrupted merges into it, keeping the origin;
// close ends the open outage. Not safe for concurrent use: the
// Detector's lock guards it.
type episodes struct {
	budget float64 // Theorem 1 steps; <= 0 disables the ratios

	recovered  bool
	since      int64     // step clock at the open outage's origin
	sinceTS    time.Time // wall clock at the open outage's origin
	openKind   string
	openFaults int

	completed, faults, merged int64
	downtime, maxWall         time.Duration
	downSteps, maxSteps       int64
	worstRatio                float64
	byKind                    map[string]int64
	last                      Episode // the latest closed; zero until completed > 0
}

// fault notes a fault of the given kind at (steps, now): it opens an
// outage if the state was recovered and merges into the open one if
// not, reporting whether it merged.
func (e *episodes) fault(kind string, steps int64, now time.Time) (merged bool) {
	e.faults++
	e.byKind[kind]++
	if !e.recovered {
		e.merged++
		e.openFaults++
		return true
	}
	e.recovered = false
	e.since, e.sinceTS, e.openKind, e.openFaults = steps, now, kind, 1
	return false
}

// close ends the open outage at (steps, now) and returns its episode.
// The caller checks that one is open. A clock that ran backwards (a
// restored shard's admissions) clamps at zero.
func (e *episodes) close(steps int64, now time.Time) Episode {
	ep := Episode{
		Kind:   e.openKind,
		Faults: e.openFaults,
		Steps:  max(steps-e.since, 0),
		Wall:   max(now.Sub(e.sinceTS), 0),
	}
	if e.budget > 0 {
		ep.BudgetRatio = float64(ep.Steps) / e.budget
	}
	e.recovered, e.openKind, e.openFaults = true, "", 0
	e.completed++
	e.downtime += ep.Wall
	e.downSteps += ep.Steps
	e.maxWall = max(e.maxWall, ep.Wall)
	e.maxSteps = max(e.maxSteps, ep.Steps)
	e.worstRatio = max(e.worstRatio, ep.BudgetRatio)
	e.last = ep
	return ep
}

// summary snapshots the history; an open outage's downtime is measured
// to now.
func (e *episodes) summary(now time.Time) EpisodeSummary {
	s := EpisodeSummary{
		Completed:        e.completed,
		Faults:           e.faults,
		MergedFaults:     e.merged,
		Open:             !e.recovered,
		TotalDowntime:    e.downtime,
		TotalDownSteps:   e.downSteps,
		MaxWall:          e.maxWall,
		MaxSteps:         e.maxSteps,
		WorstBudgetRatio: e.worstRatio,
		BudgetSteps:      e.budget,
		FaultsByKind:     maps.Clone(e.byKind),
	}
	if s.Open {
		s.OpenKind, s.OpenFaults, s.OpenWall = e.openKind, e.openFaults, now.Sub(e.sinceTS)
	}
	if e.completed > 0 {
		s.MTTR = time.Duration(int64(e.downtime) / e.completed)
		s.MTTRSteps = float64(e.downSteps) / float64(e.completed)
		last := e.last
		s.Last = &last
	}
	return s
}
