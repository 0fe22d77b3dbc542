package router

import (
	"sync"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/metrics"
	"dynalloc/internal/serve"
)

// ClusterStatus is one detector observation of the whole shard fleet.
type ClusterStatus struct {
	Steps        int64 `json:"steps"`         // cluster step clock: sum of shard admission clocks
	MaxLoad      int   `json:"max_load"`      // max bin load across reachable shards
	Total        int64 `json:"total"`         // balls across reachable shards
	NonEmpty     int64 `json:"non_empty"`     // nonempty bins across reachable shards
	PredictedMax int   `json:"predicted_max"` // fluid-limit stationary prediction
	TargetMax    int   `json:"target_max"`    // recovery threshold (predicted + slack)
	LiveShards   int   `json:"live_shards"`   // shards that answered this sweep
	Shards       int   `json:"shards"`        // configured shard count
	Degraded     bool  `json:"degraded"`      // any shard unreachable this sweep
	Recovered    bool  `json:"recovered"`
}

// Detector watches the whole cluster converge to its typical state,
// the fleet-level mirror of serve.Detector. Each Check probes every
// shard through its own session, aggregates the load digests, and
// fires once the cluster-wide maximum load is back under the
// fluid-limit target — on the cluster step clock, the sum of shard
// admission clocks, which is the phase count of the aggregate process
// the paper's Theorem 1 budget is stated in.
//
// The target is computed for the AGGREGATE geometry (total bins, total
// balls, the shards' local policy): the two-level structure admits at
// the least-loaded probed shard, so the stationary max load of the
// fleet is approximated by a single store of the combined size. A
// shard that cannot be probed makes the sweep Degraded, and a degraded
// cluster is never Recovered — max load on an unreachable shard is
// unknown, so the detector refuses to fire blind. Each shard's clocks
// are cached from its last successful probe, keeping the cluster step
// clock monotone across an outage.
//
// All methods are safe for concurrent use; overlapping Checks coalesce
// like serve.Detector's.
type Detector struct {
	rt     *Router
	target serve.Target

	checkMu sync.Mutex
	ses     *Session // owned by checkMu

	mu         sync.Mutex         // guards everything below
	ep         serve.EpisodeState // the transitions, shared with serve.Detector
	cached     []dgram.Summary    // last successful probe per shard
	haveCached []bool
	last       ClusterStatus // what a coalesced Check returns
}

// NewDetector returns a cluster detector over rt with the given
// aggregate target. The cluster starts "disrupted": the first Check
// that observes a typical, fully-reachable fleet closes the boot
// episode.
func NewDetector(rt *Router, target serve.Target) *Detector {
	d := &Detector{
		rt:         rt,
		target:     target,
		ses:        rt.NewSession(),
		cached:     make([]dgram.Summary, rt.NumShards()),
		haveCached: make([]bool, rt.NumShards()),
	}
	d.ep.Start(0, time.Now())
	return d
}

// Target returns the detector's aggregate recovery target.
func (d *Detector) Target() serve.Target { return d.target }

// Recovered reports whether the last sweep observed a typical cluster.
func (d *Detector) Recovered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.Recovered
}

// LastEpisode returns the most recently completed cluster recovery and
// the count of completed episodes.
func (d *Detector) LastEpisode() (serve.Episode, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ep.Last, d.ep.Episodes
}

// MarkDisrupted opens an outage at the current cluster step clock (the
// cached one — no probes). Call it right after injecting a fault so
// the recovery is measured from the injection. Already-disrupted
// clusters keep their original stamp: overlapping faults are one
// episode.
func (d *Detector) MarkDisrupted() {
	now := time.Now()
	d.mu.Lock()
	d.ep.Disrupt(d.stepsLocked(), now)
	d.mu.Unlock()
	metrics.SetGauge("router.cluster.recovered", 0)
}

// stepsLocked sums the cached shard admission clocks. d.mu held.
func (d *Detector) stepsLocked() int64 {
	var s int64
	for i := range d.cached {
		s += d.cached[i].Allocs
	}
	return s
}

// Check sweeps the fleet and updates the recovery state, returning the
// observation. A concurrent Check returns the cached observation.
func (d *Detector) Check() ClusterStatus {
	if !d.checkMu.TryLock() {
		d.mu.Lock()
		s := d.last
		d.mu.Unlock()
		return s
	}
	defer d.checkMu.Unlock()

	live := 0
	type probeRes struct {
		sum dgram.Summary
		ok  bool
	}
	res := make([]probeRes, d.rt.NumShards())
	for i := range res {
		sum, err := d.ses.Probe(i)
		if err != nil {
			// One retry through a fresh dial: the shard may be fine and
			// only this session's connection stale (shard restarted).
			sum, err = d.ses.Probe(i)
		}
		if err == nil {
			d.rt.markUp(i)
			res[i] = probeRes{sum: sum, ok: true}
			live++
		} else {
			d.rt.markDown(i)
		}
	}

	now := time.Now()
	d.mu.Lock()
	s := ClusterStatus{
		PredictedMax: d.target.PredictedMax,
		TargetMax:    d.target.MaxLoad(),
		LiveShards:   live,
		Shards:       d.rt.NumShards(),
		Degraded:     live < d.rt.NumShards(),
	}
	for i := range res {
		if res[i].ok {
			d.cached[i] = res[i].sum
			d.haveCached[i] = true
		}
		if !d.haveCached[i] {
			continue
		}
		c := d.cached[i]
		s.Steps += c.Allocs
		if res[i].ok {
			s.Total += c.Total
			s.NonEmpty += c.NonEmpty
			if int(c.MaxLoad) > s.MaxLoad {
				s.MaxLoad = int(c.MaxLoad)
			}
		}
	}
	s.Recovered = !s.Degraded && live > 0 && s.MaxLoad <= d.target.MaxLoad()

	if ep, closed, _ := d.ep.Observe(s.Recovered, s.Steps, now); closed {
		metrics.ObserveHistogram("router.recovery.steps", ep.Steps)
		metrics.ObserveHistogram("router.recovery.wall_ns", ep.Wall.Nanoseconds())
	}
	d.last = s
	d.mu.Unlock()

	metrics.AddCounter("router.detector.checks", 1)
	metrics.SetGauge("router.cluster.recovered", boolGauge(s.Recovered))
	metrics.SetGauge("router.cluster.max_load", float64(s.MaxLoad))
	metrics.SetGauge("router.cluster.total", float64(s.Total))
	metrics.SetGauge("router.cluster.live_shards", float64(s.LiveShards))
	metrics.SetGauge("router.cluster.target_max_load", float64(s.TargetMax))
	metrics.SetGauge("router.recovery.budget_steps", d.target.BudgetSteps)
	return s
}

// Close releases the detector's probe session.
func (d *Detector) Close() {
	d.checkMu.Lock()
	d.ses.Close()
	d.checkMu.Unlock()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
