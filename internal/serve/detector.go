package serve

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dynalloc/internal/core"
	"dynalloc/internal/fluid"
	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
)

// Target is the recovery detector's definition of "typical state": the
// store has recovered once its maximum load is at most
// PredictedMax + Slack, where PredictedMax is the fluid-limit
// prediction of the stationary maximum load (the same baseline the
// offline experiments validate against — see internal/fluid). The
// paper guarantees the process reaches the typical state from an
// arbitrary start within O(m ln m) phases (Theorem 1, Scenario A);
// BudgetSteps carries that scale so dashboards and tests can compare
// the measured recovery against the theorem.
type Target struct {
	PredictedMax int     `json:"predicted_max"` // fluid-limit stationary max-load prediction
	Slack        int     `json:"slack"`         // allowed excess before the state counts as atypical
	BudgetSteps  float64 `json:"budget_steps"`  // Theorem 1 scale: m·ln(m/eps) with eps = 1/4
}

// MaxLoad returns the recovery threshold PredictedMax + Slack.
func (t Target) MaxLoad() int { return t.PredictedMax + t.Slack }

// NewTarget computes the recovery target for a store of n bins serving
// m balls under the given admission policy and departure scenario. It
// integrates the rule's fluid-limit model to its fixed point and reads
// off the predicted maximum load; the integration is O(cap^2) per step
// with cap = ceil(m/n)+14 levels and converges in well under a second
// for any realistic load factor.
func NewTarget(p Policy, sc process.Scenario, n, m, slack int) (Target, error) {
	if n < 1 || m < 1 {
		return Target{}, fmt.Errorf("serve: target needs n >= 1 and m >= 1, got n=%d m=%d", n, m)
	}
	if slack < 0 {
		return Target{}, fmt.Errorf("serve: target slack must be >= 0, got %d", slack)
	}
	rho := float64(m) / float64(n)
	cap := int(math.Ceil(rho)) + 14
	model := p.FluidModel(sc, cap)
	// Tolerance 1e-7 (not 1e-8): mixture laws plateau slightly above
	// 1e-8 from floating-point noise, and bin-count rounding swamps the
	// difference anyway.
	pf, err := model.FixedPoint(fluid.InitialBalanced(rho, cap), 0.05, 1e-7, 400000)
	if err != nil {
		return Target{}, fmt.Errorf("serve: fluid baseline for %s: %w", p.Name(), err)
	}
	return Target{
		PredictedMax: fluid.PredictedMaxLoad(pf, n),
		Slack:        slack,
		BudgetSteps:  core.Theorem1Bound(m, 0.25),
	}, nil
}

// Episode is one completed recovery: the store left the typical state
// (a crash, or a slow drift) and came back. Steps counts admissions
// (the service's phase clock), Wall is elapsed wall-clock time.
type Episode struct {
	Steps int64         `json:"steps"`
	Wall  time.Duration `json:"wall_ns"`
}

// EpisodeState is the recovered/disrupted state machine of a recovery
// detector, whatever its load source: serve.Detector feeds it one
// store's level counts, router.Detector a fleet's probed digests. It
// begins disrupted (Start stamps the origin); a fault while disrupted
// merges into the open outage — the origin is kept, so the episode is
// measured from the first fault — and the first typical observation
// closes it. Not safe for concurrent use: the detector's lock guards it,
// with whatever that detector keeps in step with the transitions.
type EpisodeState struct {
	Recovered bool    // the last transition left the state typical
	Last      Episode // most recently completed episode
	Episodes  int64   // completed episodes

	since   int64     // step clock at the current outage's origin
	sinceTS time.Time // wall clock at the current outage's origin
}

// Start stamps the origin of the boot outage.
func (e *EpisodeState) Start(steps int64, now time.Time) { e.since, e.sinceTS = steps, now }

// Disrupt notes a fault at (steps, now): it opens an outage and returns
// true if the state was recovered, and merges into the open one if not.
func (e *EpisodeState) Disrupt(steps int64, now time.Time) bool {
	if !e.Recovered {
		return false
	}
	e.Recovered = false
	e.since, e.sinceTS = steps, now
	return true
}

// Observe feeds one observation taken at (steps, now). A typical one
// while disrupted closes the episode (returned, closed = true); an
// atypical one while recovered — drift, or a fault nobody announced —
// opens an outage at the observation.
func (e *EpisodeState) Observe(typical bool, steps int64, now time.Time) (ep Episode, closed, opened bool) {
	if typical && !e.Recovered {
		e.Last = Episode{Steps: steps - e.since, Wall: now.Sub(e.sinceTS)}
		e.Episodes++
		e.Recovered = true
		return e.Last, true, false
	}
	return Episode{}, false, !typical && e.Disrupt(steps, now)
}

// Status is one detector observation of the store.
type Status struct {
	Steps        int64 `json:"steps"`         // store admission clock at the check
	MaxLoad      int   `json:"max_load"`      // current maximum bin load
	Gap          int   `json:"gap"`           // max load above fair share (loadvec.Gap)
	DeltaTypical int   `json:"delta_typical"` // path-coupling distance Delta to the balanced state
	PredictedMax int   `json:"predicted_max"` // fluid-limit stationary prediction
	TargetMax    int   `json:"target_max"`    // recovery threshold (predicted + slack)
	Total        int64 `json:"total"`         // balls in the store
	NonEmpty     int64 `json:"non_empty"`     // nonempty bins
	Recovered    bool  `json:"recovered"`
}

// Detector watches a Store converge to its typical state. Check reads
// the store's load histogram (lock-free, a handful of levels per index
// stripe — not the bins), computes the distance-to-typical measures —
// maximum load against the fluid-limit prediction, the gap above fair
// share, and the path-coupling metric Delta(v, balanced) that Sections
// 4 and 5 contract — and tracks recovered/disrupted transitions. Each
// not-recovered -> recovered transition closes an Episode, recorded in
// the "serve.recovery.steps" and "serve.recovery.wall_ns" histograms;
// the current state is published through the "serve.recovered" gauge
// and friends (see docs/SERVING.md for the full metric list).
//
// All methods are safe for concurrent use. Overlapping Check calls are
// coalesced: a call that finds another check in flight returns the
// previous observation instead of reading the store again, so a
// wall-clock ticker and a step-cadence driver sharing one detector
// observe one sequence of transitions.
type Detector struct {
	store  *Store
	target Target

	checkMu sync.Mutex   // serializes the read+transition critical section
	sparse  []levelCount // Check's scratch for levels >= denseLevels; guarded by checkMu

	mu      sync.Mutex // guards everything below
	ep      EpisodeState
	last    Status          // what a coalesced Check returns
	tracker *EpisodeTracker // optional; see AttachEpisodes
}

// NewDetector returns a detector for st with the given target. The
// store starts in the "disrupted" state: the first Check that observes
// a typical state closes the initial episode (recovery from startup).
func NewDetector(st *Store, target Target) *Detector {
	d := &Detector{store: st, target: target}
	d.ep.Start(st.Allocs(), time.Now())
	return d
}

// Target returns the detector's recovery target.
func (d *Detector) Target() Target { return d.target }

// Recovered reports whether the last observation was typical.
func (d *Detector) Recovered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.Recovered
}

// LastEpisode returns the most recently completed recovery episode and
// the count of completed episodes (0 means none yet).
func (d *Detector) LastEpisode() (Episode, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.Last, d.ep.Episodes
}

// AttachEpisodes connects an EpisodeTracker to the detector: every
// NoteFault/MarkDisrupted call and every drift-opened outage is
// reported to the tracker as a fault, and every recovery closes the
// tracker's open episode. If the detector is currently disrupted
// (which includes a freshly constructed detector — the store starts
// atypical), the tracker opens a "startup" episode stamped at the
// outage's origin, so boot-time recovery is the first episode.
func (d *Detector) AttachEpisodes(tr *EpisodeTracker) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracker = tr
	if tr != nil && !d.ep.Recovered {
		tr.noteFault("startup", d.ep.since, d.ep.sinceTS)
	}
}

// Episodes returns the attached tracker, or nil.
func (d *Detector) Episodes() *EpisodeTracker {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker
}

// MarkDisrupted forces the detector into the not-recovered state,
// stamping the outage at the store's current step clock. Call it right
// after a fault injection (Store.Crash) so the following recovery is
// measured from the injection, not from the next Check. It is
// NoteFault with the kind "manual".
func (d *Detector) MarkDisrupted() { d.NoteFault("manual") }

// NoteFault records a fault of the given kind (the chaos injector
// passes its catastrophe names; /crash passes "manual"). If the store
// is currently recovered this opens a new outage at the store's
// current step clock. If it is already disrupted the fault MERGES into
// the ongoing outage: the origin stamp is kept, so the eventual
// episode is measured from the first fault — overlapping faults are
// one episode, the self-stabilization unit of account.
func (d *Detector) NoteFault(kind string) {
	now := time.Now()
	steps := d.store.Allocs()
	d.mu.Lock()
	d.ep.Disrupt(steps, now)
	if d.tracker != nil {
		d.tracker.noteFault(kind, steps, now)
	}
	d.mu.Unlock()
	metrics.SetGauge("serve.recovered", 0)
}

// Check observes the store and updates the recovery state, returning
// the observation. If another Check is already in flight the cached
// observation is returned instead (see the type comment).
//
// The observation is computed from the store's level counts alone: the
// normalized load vector is the levels in descending order, each
// repeated once per bin on it. At rest it equals what Snapshot() would
// give field for field; under traffic the counts are not one cut, so
// the fields can be off by the operations in flight, never negative.
func (d *Detector) Check() Status {
	if !d.checkMu.TryLock() {
		d.mu.Lock()
		s := d.last
		d.mu.Unlock()
		return s
	}
	defer d.checkMu.Unlock()

	steps := d.store.Allocs()
	var atLeast [denseLevels]int64
	d.sparse = d.store.levels(&atLeast, d.sparse[:0])
	s := Status{
		Steps:        steps,
		PredictedMax: d.target.PredictedMax,
		TargetMax:    d.target.MaxLoad(),
		NonEmpty:     atLeast[1],
	}
	// A bin of load v is counted by atLeast[1..v], so the levels sum to
	// the mass; the dense levels stop at denseLevels-1 and the sparse
	// list supplies the rest of each taller bin.
	for l := 1; l < denseLevels; l++ {
		s.Total += atLeast[l]
		if atLeast[l] != 0 {
			s.MaxLoad = l
		}
	}
	for _, lv := range d.sparse {
		s.Total += lv.bins * (lv.load - (denseLevels - 1))
		s.MaxLoad = max(s.MaxLoad, int(lv.load))
	}
	// The balanced state of the same mass has r bins at q+1 and the
	// rest at q, so against it level q+1 is over by the bins past r and
	// every level above by all of its bins: that excess is Delta.
	n := int64(d.store.N())
	q, r := s.Total/n, s.Total%n
	var next, above int64 // bins at >= q+1; sum over l >= q+2 of bins at >= l
	for l := q + 1; l < denseLevels; l++ {
		if l == q+1 {
			next = atLeast[l]
		} else {
			above += atLeast[l]
		}
	}
	for _, lv := range d.sparse {
		if q+1 >= denseLevels && lv.load > q {
			next += lv.bins
		}
		above += lv.bins * max(lv.load-max(q+1, denseLevels-1), 0)
	}
	s.DeltaTypical = int(max(next-r, 0) + above)
	// Max load above the fair share ceil(m/n), as loadvec.Gap. Counts
	// read mid-move can show one bin on two levels; then the fair share
	// of the doubled mass may pass the max.
	s.Gap = max(s.MaxLoad-int((s.Total+n-1)/n), 0)
	s.Recovered = s.MaxLoad <= d.target.MaxLoad()

	now := time.Now()
	d.mu.Lock()
	if ep, closed, opened := d.ep.Observe(s.Recovered, steps, now); closed {
		metrics.ObserveHistogram("serve.recovery.steps", ep.Steps)
		metrics.ObserveHistogram("serve.recovery.wall_ns", ep.Wall.Nanoseconds())
		if d.tracker != nil {
			d.tracker.noteRecovered(steps, now)
		}
	} else if opened && d.tracker != nil {
		// The store drifted (or was crashed) out of the typical band
		// between checks: the outage opens at this observation.
		d.tracker.noteFault("drift", steps, now)
	}
	d.last = s
	d.mu.Unlock()

	metrics.AddCounter("serve.detector.checks", 1)
	metrics.SetGauge("serve.recovered", boolGauge(s.Recovered))
	metrics.SetGauge("serve.max_load", float64(s.MaxLoad))
	metrics.SetGauge("serve.gap", float64(s.Gap))
	metrics.SetGauge("serve.delta_typical", float64(s.DeltaTypical))
	metrics.SetGauge("serve.predicted_max_load", float64(s.PredictedMax))
	metrics.SetGauge("serve.target_max_load", float64(s.TargetMax))
	metrics.SetGauge("serve.recovery.budget_steps", d.target.BudgetSteps)
	return s
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
