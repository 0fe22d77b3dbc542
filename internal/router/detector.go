package router

import (
	"sync/atomic"

	"dynalloc/internal/dgram"
	"dynalloc/internal/serve"
)

// fleetSource is a serve.LoadSource over the whole shard fleet: each
// Observe probes every shard through its own session and aggregates the
// load digests, on the cluster step clock — the sum of the shard
// admission clocks, which is the phase count of the aggregate process
// the paper's Theorem 1 budget is stated in. A shard that cannot be
// probed makes the sweep Degraded. Each shard's digest is cached from
// its last successful probe, keeping the step clock monotone across an
// outage.
type fleetSource struct {
	rt     *Router
	ses    *Session        // Observe's own
	cached []dgram.Summary // last successful probe per shard
	live   []bool          // which shards answered this sweep
	steps  atomic.Int64    // sum of the cached admission clocks
}

// NewDetector returns a recovery detector over the fleet rt, judged
// against the AGGREGATE target (total bins, total balls, the shards'
// local policy): the two-level structure admits at the least-loaded
// probed shard, so the stationary max load of the fleet is approximated
// by a single store of the combined size. Its metrics go out under
// "router."; Close releases its probe session.
func NewDetector(rt *Router, target serve.Target) *serve.Detector {
	return serve.NewSourceDetector(&fleetSource{
		rt:     rt,
		ses:    rt.NewSession(),
		cached: make([]dgram.Summary, rt.NumShards()),
		live:   make([]bool, rt.NumShards()),
	}, target, "router")
}

func (f *fleetSource) Steps() int64 { return f.steps.Load() }
func (f *fleetSource) Close()       { f.ses.Close() }

// Observe sweeps the fleet. Max load, total and nonempty bins are over
// the shards that answered; Gap and the lower bound on DeltaTypical
// come from each shard's tallest bin against the aggregate fair share,
// since a digest carries no level counts.
func (f *fleetSource) Observe() serve.Status {
	s := serve.Status{Shards: len(f.cached)}
	var bins int64
	for i := range f.cached {
		sum, err := f.ses.Probe(i)
		if err != nil {
			// One retry through a fresh dial: the shard may be fine and
			// only this session's connection stale (shard restarted).
			sum, err = f.ses.Probe(i)
		}
		if f.live[i] = err == nil; f.live[i] {
			f.rt.markUp(i)
			f.cached[i] = sum
			s.LiveShards++
			s.Total += sum.Total
			s.NonEmpty += sum.NonEmpty
			s.MaxLoad = max(s.MaxLoad, int(sum.MaxLoad))
			bins += int64(sum.N)
		} else {
			f.rt.markDown(i)
		}
		s.Steps += f.cached[i].Allocs
	}
	s.Degraded = s.LiveShards < s.Shards
	if bins > 0 {
		// A bin of load L above q+1 is over the balanced state of the
		// same mass by L-q-1 (serve's Delta), so the tallest bins bound
		// Delta from below.
		q := s.Total / bins
		for i, ok := range f.live {
			if ok {
				s.DeltaTypical += int(max(int64(f.cached[i].MaxLoad)-q-1, 0))
			}
		}
		s.Gap = max(s.MaxLoad-int((s.Total+bins-1)/bins), 0)
	}
	f.steps.Store(s.Steps)
	return s
}
