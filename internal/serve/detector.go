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

// Status is one detector observation. LiveShards, Shards and Degraded
// are a fleet's (see LoadSource); a store leaves them zero.
type Status struct {
	Steps        int64 `json:"steps"`                 // step clock at the check (a fleet: the sum of its shards')
	MaxLoad      int   `json:"max_load"`              // current maximum bin load
	Gap          int   `json:"gap"`                   // max load above fair share (loadvec.Gap)
	DeltaTypical int   `json:"delta_typical"`         // path-coupling distance Delta to the balanced state (a fleet: a lower bound)
	PredictedMax int   `json:"predicted_max"`         // fluid-limit stationary prediction
	TargetMax    int   `json:"target_max"`            // recovery threshold (predicted + slack)
	Total        int64 `json:"total"`                 // balls observed
	NonEmpty     int64 `json:"non_empty"`             // nonempty bins
	LiveShards   int   `json:"live_shards,omitempty"` // shards that answered this sweep
	Shards       int   `json:"shards,omitempty"`      // configured shard count
	Degraded     bool  `json:"degraded"`              // a shard did not answer: the sweep cannot be typical
	Recovered    bool  `json:"recovered"`             // the detector's state after this observation
}

// A LoadSource is what a Detector observes: one Store's level histogram
// (NewDetector) or a fleet's probed digests (router.NewDetector).
type LoadSource interface {
	// Observe reads the current state into every Status field but the
	// target's and Recovered. The Detector never overlaps two calls.
	Observe() Status
	// Steps returns the step clock without observing: the stamp a
	// fault gets. It may run concurrently with Observe.
	Steps() int64
	// Close releases what the source holds.
	Close()
}

// Detector watches a load source converge to its typical state: the
// maximum load back under the fluid-limit target, on a source that saw
// everything (a degraded fleet sweep is never typical — max load on an
// unreachable shard is unknown). It tracks the recovered/disrupted
// transitions and segments them into Episodes, measured on the
// source's step clock — the phase count Theorem 1's budget is stated
// in. The boot is the first outage (kind "startup"). Its metrics go out
// under the source's prefix ("serve." for a store, "router." for a
// fleet; docs/OBSERVABILITY.md lists them): the recovered gauge and
// friends on every Check, the per-episode "recovery.steps" and
// "recovery.wall_ns" histograms, and the "episodes.*" ledger — MTTR,
// downtime, fault counts, and recovery times against the Theorem 1
// budget.
//
// All methods are safe for concurrent use. Overlapping Check calls are
// coalesced: a call that finds another check in flight returns the
// previous observation instead of reading the source again, so a
// wall-clock ticker and a step-cadence driver sharing one detector
// observe one sequence of transitions.
type Detector struct {
	src    LoadSource
	target Target
	names  detectorMetrics
	now    func() time.Time // time.Now; tests substitute a clock

	checkMu sync.Mutex // one Check reads the source at a time

	mu   sync.Mutex // guards everything below
	ep   episodes
	last Status // what a coalesced Check returns
}

// NewDetector returns a detector for st with the given target.
func NewDetector(st *Store, target Target) *Detector {
	return NewSourceDetector(&storeSource{st: st}, target, "serve")
}

// NewSourceDetector returns a detector over src with the given target,
// publishing its metrics under prefix. It starts disrupted: the first
// Check that observes a typical state closes the boot episode.
func NewSourceDetector(src LoadSource, target Target, prefix string) *Detector {
	d := &Detector{
		src:    src,
		target: target,
		names:  newDetectorMetrics(prefix),
		now:    time.Now,
		ep:     episodes{budget: target.BudgetSteps, recovered: true, byKind: map[string]int64{}},
	}
	d.NoteFault("startup")
	return d
}

// Target returns the detector's recovery target.
func (d *Detector) Target() Target { return d.target }

// Recovered reports whether the detector is in the typical state.
func (d *Detector) Recovered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.recovered
}

// LastEpisode returns the most recently completed recovery episode and
// the count of completed episodes (0 means none yet).
func (d *Detector) LastEpisode() (Episode, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.last, d.ep.completed
}

// Summary snapshots the full episode history. OpenWall is measured
// against now for an open outage.
func (d *Detector) Summary() EpisodeSummary {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.summary(now)
}

// MarkDisrupted is NoteFault with the kind "manual": call it right
// after a fault injection (Store.Crash) so the following recovery is
// measured from the injection, not from the next Check.
func (d *Detector) MarkDisrupted() { d.NoteFault("manual") }

// NoteFault records a fault of the given kind (the chaos injector
// passes its catastrophe names). If the detector is recovered this
// opens an outage at the source's step clock; if not, the fault MERGES
// into the open outage, which keeps its origin — overlapping faults
// are one episode.
func (d *Detector) NoteFault(kind string) {
	now, steps := d.now(), d.src.Steps()
	d.mu.Lock()
	d.faultLocked(kind, steps, now)
	d.mu.Unlock()
}

// faultLocked notes a fault and publishes it. d.mu held.
func (d *Detector) faultLocked(kind string, steps int64, now time.Time) {
	merged := d.ep.fault(kind, steps, now)
	metrics.SetGauge(d.names.recovered, 0)
	metrics.AddCounter(d.names.faults, 1)
	metrics.SetGauge(d.names.open, 1)
	if merged {
		metrics.AddCounter(d.names.merged, 1)
	}
}

// Check observes the source and updates the recovery state, returning
// the observation. If another Check is already in flight the cached
// observation is returned instead (see the type comment).
func (d *Detector) Check() Status {
	if !d.checkMu.TryLock() {
		d.mu.Lock()
		s := d.last
		d.mu.Unlock()
		return s
	}
	defer d.checkMu.Unlock()

	// The fault count is the epoch: a fault noted while the source is
	// read may postdate what was read, so that read cannot close the
	// fault's outage — the next Check does. Checks never overlap, so
	// only NoteFault moves the count meanwhile.
	d.mu.Lock()
	epoch := d.ep.faults
	d.mu.Unlock()
	s := d.src.Observe()
	s.PredictedMax, s.TargetMax = d.target.PredictedMax, d.target.MaxLoad()
	now := d.now()

	d.mu.Lock()
	defer d.mu.Unlock()
	typical := !s.Degraded && s.MaxLoad <= s.TargetMax && d.ep.faults == epoch
	switch {
	case typical && !d.ep.recovered:
		d.publishClose(d.ep.close(s.Steps, now))
	case !typical && d.ep.recovered:
		// The source drifted (or was crashed unannounced) out of the
		// typical band between checks: the outage opens here.
		d.faultLocked("drift", s.Steps, now)
	}
	s.Recovered = d.ep.recovered
	d.last = s

	metrics.AddCounter(d.names.checks, 1)
	metrics.SetGauge(d.names.recovered, boolGauge(s.Recovered))
	metrics.SetGauge(d.names.maxLoad, float64(s.MaxLoad))
	metrics.SetGauge(d.names.gap, float64(s.Gap))
	metrics.SetGauge(d.names.delta, float64(s.DeltaTypical))
	metrics.SetGauge(d.names.predicted, float64(s.PredictedMax))
	metrics.SetGauge(d.names.targetMax, float64(s.TargetMax))
	metrics.SetGauge(d.names.budget, d.target.BudgetSteps)
	return s
}

// publishClose publishes a closed episode. d.mu held.
func (d *Detector) publishClose(ep Episode) {
	e := &d.ep
	metrics.ObserveHistogram(d.names.recSteps, ep.Steps)
	metrics.ObserveHistogram(d.names.recWall, ep.Wall.Nanoseconds())
	metrics.AddCounter(d.names.completed, 1)
	metrics.SetGauge(d.names.open, 0)
	metrics.SetGauge(d.names.downtime, float64(e.downtime.Nanoseconds()))
	metrics.SetGauge(d.names.mttr, float64(e.downtime.Nanoseconds())/float64(e.completed))
	metrics.SetGauge(d.names.mttrSteps, float64(e.downSteps)/float64(e.completed))
	metrics.ObserveHistogram(d.names.epSteps, ep.Steps)
	metrics.ObserveHistogram(d.names.epWall, ep.Wall.Nanoseconds())
	if e.budget > 0 {
		metrics.ObserveHistogram(d.names.budgetPct, int64(ep.BudgetRatio*100))
	}
}

// Close releases the source (a fleet's probe session).
func (d *Detector) Close() {
	d.checkMu.Lock()
	d.src.Close()
	d.checkMu.Unlock()
}

// detectorMetrics are the names a Detector publishes, built once under
// its source's prefix so Check concatenates nothing.
type detectorMetrics struct {
	recovered, maxLoad, gap, delta, predicted, targetMax, budget, checks string
	recSteps, recWall                                                    string
	faults, merged, open, completed, downtime, mttr, mttrSteps           string
	epSteps, epWall, budgetPct                                           string
}

func newDetectorMetrics(prefix string) detectorMetrics {
	p := prefix + "."
	return detectorMetrics{
		recovered: p + "recovered", maxLoad: p + "max_load", gap: p + "gap",
		delta: p + "delta_typical", predicted: p + "predicted_max_load",
		targetMax: p + "target_max_load", budget: p + "recovery.budget_steps",
		checks: p + "detector.checks", recSteps: p + "recovery.steps", recWall: p + "recovery.wall_ns",
		faults: p + "episodes.faults", merged: p + "episodes.merged_faults", open: p + "episodes.open",
		completed: p + "episodes.completed", downtime: p + "episodes.downtime_ns",
		mttr: p + "episodes.mttr_ns", mttrSteps: p + "episodes.mttr_steps",
		epSteps: p + "episodes.steps", epWall: p + "episodes.wall_ns", budgetPct: p + "episodes.budget_pct",
	}
}

// storeSource observes one Store through its load histogram (lock-free,
// a handful of levels per index stripe — not the bins).
type storeSource struct {
	st     *Store
	sparse []levelCount // Observe's scratch for levels >= denseLevels
}

func (src *storeSource) Steps() int64 { return src.st.Allocs() }
func (src *storeSource) Close()       {}

// Observe computes the distance-to-typical measures — maximum load,
// the gap above fair share, and the path-coupling metric
// Delta(v, balanced) that Sections 4 and 5 contract — from the store's
// level counts alone: the normalized load vector is the levels in
// descending order, each repeated once per bin on it. At rest it equals
// what Snapshot() would give field for field; under traffic the counts
// are not one cut, so the fields can be off by the operations in
// flight, never negative.
func (src *storeSource) Observe() Status {
	var atLeast [denseLevels]int64
	s := Status{Steps: src.st.Allocs()}
	src.sparse = src.st.levels(&atLeast, src.sparse[:0])
	s.NonEmpty = atLeast[1]
	// A bin of load v is counted by atLeast[1..v], so the levels sum to
	// the mass; the dense levels stop at denseLevels-1 and the sparse
	// list supplies the rest of each taller bin.
	for l := 1; l < denseLevels; l++ {
		s.Total += atLeast[l]
		if atLeast[l] != 0 {
			s.MaxLoad = l
		}
	}
	for _, lv := range src.sparse {
		s.Total += lv.bins * (lv.load - (denseLevels - 1))
		s.MaxLoad = max(s.MaxLoad, int(lv.load))
	}
	// The balanced state of the same mass has r bins at q+1 and the
	// rest at q, so against it level q+1 is over by the bins past r and
	// every level above by all of its bins: that excess is Delta.
	n := int64(src.st.N())
	q, r := s.Total/n, s.Total%n
	var next, above int64 // bins at >= q+1; sum over l >= q+2 of bins at >= l
	for l := q + 1; l < denseLevels; l++ {
		if l == q+1 {
			next = atLeast[l]
		} else {
			above += atLeast[l]
		}
	}
	for _, lv := range src.sparse {
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
	return s
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
