package serve

import (
	"fmt"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
)

// Batcher is one worker's admission lane through the engine — the only
// one: each Pass drives up to `batch` remove-then-insert phases,
// removing k balls through the departure scenario and re-admitting all
// k with a single Store.AdmitBatch call (one striped-lock acquisition
// per touched shard per pass). A pass of size 1 is exactly one phase of
// the paper's closed process: free draw, then pick, then admit, from
// one stream. All pass state (the destination bins, the admit grouping
// scratch, pre-resolved metric counters) lives in the Batcher, so a
// steady stream of passes performs zero heap allocations on the
// non-durable path; the TestAllocBudget tier and the serve/admit-batch
// bench workload gate exactly that.
//
// Within one pass of size b > 1 the policy's probes do not see the
// pass's own admissions — the same bounded staleness any concurrent
// d-choice deployment has (and precisely what the cluster router's
// pipelined dgram AdmitBatch already accepts shard-to-router); the
// departure draws of the next pass see every prior admission. A
// Batcher is single-caller state: give each worker its own.
type Batcher struct {
	st      *Store
	pol     Policy
	sc      process.Scenario
	bins    []int
	scratch AdmitScratch

	// Counters are resolved once here: the registry lookup takes a
	// read lock and hashes the name, which has no place in the hot loop.
	balls  *metrics.Counter
	passes *metrics.Counter
}

// NewBatcher returns a batch lane over st driving phases of the given
// scenario with its own clone of pol. batch (>= 1) is the pass
// capacity — the largest k a single Pass will drive.
func NewBatcher(st *Store, pol Policy, sc process.Scenario, batch int) *Batcher {
	if st == nil || pol == nil {
		panic("serve: batcher needs a store and a policy")
	}
	if batch < 1 {
		panic("serve: batcher needs batch >= 1")
	}
	if sc != process.ScenarioA && sc != process.ScenarioB {
		panic(fmt.Sprintf("serve: unknown scenario %v", sc))
	}
	reg := metrics.Default()
	return &Batcher{
		st:     st,
		pol:    pol.Clone(),
		sc:     sc,
		bins:   make([]int, batch),
		balls:  reg.Counter("serve.admit.batch.balls"),
		passes: reg.Counter("serve.admit.batch.passes"),
	}
}

// Pass drives one super-phase of k phases (clamped to the pass
// capacity): k scenario departures, then k admissions picked through
// the policy's batch path and applied with one AdmitBatch. It returns
// the number of phases completed. A short count with a non-nil error
// (always ErrEmpty) means the store drained mid-pass; the balls freed
// before the drain are still re-admitted, so a Pass never loses mass.
func (b *Batcher) Pass(r *rng.RNG, k int) (int, error) {
	if k > len(b.bins) {
		k = len(b.bins)
	}
	freed := 0
	var err error
	for ; freed < k; freed++ {
		if b.sc == process.ScenarioB {
			_, err = b.st.FreeNonEmpty(r)
		} else {
			_, err = b.st.FreeBall(r)
		}
		if err != nil {
			break
		}
	}
	if freed == 0 {
		return 0, err
	}
	bins := b.bins[:freed]
	b.pol.PickBatch(b.st, r, bins)
	b.st.AdmitBatch(bins, nil, &b.scratch)
	if metrics.Enabled() {
		b.balls.Add(int64(freed))
		b.passes.Inc()
	}
	return freed, err
}
